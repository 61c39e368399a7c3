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
	var c costScratch
	return c.estimate(ctx, g, seeds, set, samples, seed, model, budget, nil)
}

// estimate is the one cost-estimation loop behind every estimate of ρ; wm
// (nil disables) meters the sampled cascades.
//
// The candidate set is marked once in c.inSet, and each sampled cascade —
// left in traversal order, never sorted — is scored by counting its marked
// nodes. Ids outside the graph are never reached, so they count toward |set|
// only. The integers are those a sorted merge would count, and the
// distance, random draws and summation order are unchanged, so the estimate
// matches sampling, sorting and jaccard.Distance bit for bit.
func (c *costScratch) estimate(ctx context.Context, g *graph.Graph, seeds, set []graph.NodeID, samples int, seed uint64, model index.Model, budget checkpoint.Budget, wm *worlds.Metrics) (float64, int, error) {
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
	c.fit(g.NumNodes())
	c.mark(set, true)
	defer c.mark(set, false)
	master := rng.New(seed)
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
			c.buf = worlds.SampleLTMetered(g, rs, wm).AppendReachable(seeds, c.visited, c.buf[:0])
		} else {
			c.buf = worlds.SampleCascadeFromSetMetered(g, seeds, rs, c.visited, c.buf[:0], wm)
		}
		inter := 0
		for _, v := range c.buf {
			if c.inSet[v] {
				inter++
			}
		}
		total += jaccard.DistanceFromCounts(inter, len(set), len(c.buf))
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
