package core

import (
	"context"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// ComputeWithScratch is Compute reusing a caller-owned scratch, the hot path
// for query serving: a server keeps a pool of scratches and avoids the
// per-query allocation of index.NewScratch.
func ComputeWithScratch(x *index.Index, v graph.NodeID, opts Options, s *index.Scratch) Result {
	return computeWithScratch(x, []graph.NodeID{v}, opts, s, newMetricsSet(telemetryFor(x, opts)))
}

// EstimateCostBudget is EstimateCostModel under cooperative cancellation and
// a wall-clock Budget: sampling stops when ctx is canceled or the budget's
// deadline is too near to fit another cascade. It returns the mean Jaccard
// distance over the achieved samples and how many completed. When the
// deadline truncates sampling but the budget's minimum is met, the result is
// usable and err is a *checkpoint.PartialError (matching checkpoint.ErrPartial)
// carrying the achieved count and the Theorem-2-style error bound; below the
// minimum the error is hard. A zero Budget makes this EstimateCostModel with
// ctx checks.
func EstimateCostBudget(ctx context.Context, g *graph.Graph, seeds, set []graph.NodeID, samples int, seed uint64, model index.Model, budget checkpoint.Budget) (float64, int, error) {
	return estimateCost(ctx, g, seeds, set, samples, seed, model, budget, nil)
}

// estimateCost is the one cost-estimation loop behind EstimateCostBudget
// and EstimateCostModel; wm (nil disables) meters the sampled cascades.
func estimateCost(ctx context.Context, g *graph.Graph, seeds, set []graph.NodeID, samples int, seed uint64, model index.Model, budget checkpoint.Budget, wm *worlds.Metrics) (float64, int, error) {
	if samples <= 0 {
		return -1, 0, nil
	}
	// A Runner with no checkpoint path is just the budget gate (nil, and
	// free, when the budget is zero): no flusher starts, but Gate/Partial give
	// the same deadline-degradation semantics as the …Resumable paths.
	r, _, err := checkpoint.Start(checkpoint.Config{Budget: budget}, samples, nil)
	if err != nil {
		return 0, 0, err
	}
	master := rng.New(seed)
	visited := make([]bool, g.NumNodes())
	var buf []graph.NodeID
	total := 0.0
	truncated := false
	// Samples complete in order, so i counts the completed ones.
	i := 0
	for ; i < samples; i++ {
		if err := ctx.Err(); err != nil {
			return 0, i, err
		}
		if err := r.Gate(); err != nil {
			truncated = true
			break
		}
		rs := master.Split(uint64(i))
		if model == index.LT {
			w := worlds.SampleLTMetered(g, rs, wm)
			buf = w.ReachableFromSet(seeds, visited, buf[:0])
		} else {
			buf = worlds.SampleCascadeFromSetMetered(g, seeds, rs, visited, buf[:0], wm)
		}
		total += jaccard.Distance(set, buf)
		r.MarkDone(i, nil)
	}
	achieved := i
	if !truncated {
		return total / float64(samples), achieved, nil
	}
	perr := r.Partial(samples)
	var pe *checkpoint.PartialError
	if !asPartial(perr, &pe) {
		return 0, achieved, perr // deadline hit below the budget minimum
	}
	return total / float64(achieved), achieved, perr
}

func asPartial(err error, out **checkpoint.PartialError) bool {
	pe, ok := err.(*checkpoint.PartialError)
	if ok {
		*out = pe
	}
	return ok
}
