package reliability

import (
	"context"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// STCtx is ST with cooperative cancellation: ctx is checked between the
// underlying cascade samples.
func STCtx(ctx context.Context, g *graph.Graph, s, t graph.NodeID, samples int, seed uint64) (float64, error) {
	if t < 0 || int(t) >= g.NumNodes() {
		return 0, outOfRange(t)
	}
	probs, err := FromSourceCtx(ctx, g, []graph.NodeID{s}, samples, seed)
	if err != nil {
		return 0, err
	}
	return probs[t], nil
}

// FromSourceBudget is FromSourceCtx under a wall-clock Budget: sampling stops
// when the deadline is too near to fit another cascade, and the per-node
// reachability probabilities are normalized by the achieved sample count.
// When the deadline truncates sampling but the budget's minimum is met, the
// probabilities are usable and err is a *checkpoint.PartialError (matching
// checkpoint.ErrPartial); below the minimum the error is hard. A zero Budget
// makes this FromSourceCtx.
func FromSourceBudget(ctx context.Context, g *graph.Graph, sources []graph.NodeID, samples int, seed uint64, budget checkpoint.Budget) ([]float64, int, error) {
	if err := validateFromSource(g, sources, samples); err != nil {
		return nil, 0, err
	}
	r, _, err := checkpoint.Start(checkpoint.Config{Budget: budget}, samples, nil)
	if err != nil {
		return nil, 0, err
	}
	counts := make([]int, g.NumNodes())
	visited := make([]bool, g.NumNodes())
	master := rng.New(seed)
	var buf []graph.NodeID
	truncated := false
	// Samples complete in order, so i counts the completed ones.
	i := 0
	for ; i < samples; i++ {
		if err := ctx.Err(); err != nil {
			return nil, i, err
		}
		if err := r.Gate(); err != nil {
			truncated = true
			break
		}
		buf = worlds.SampleCascadeFromSetMetered(g, sources, master.Split(uint64(i)), visited, buf[:0], nil)
		for _, v := range buf {
			counts[v]++
		}
		r.MarkDone(i, nil)
	}
	achieved := i
	var outcome error
	if truncated {
		outcome = r.Partial(samples)
		if _, ok := outcome.(*checkpoint.PartialError); !ok {
			return nil, achieved, outcome // deadline hit below the budget minimum
		}
	}
	probs := make([]float64, g.NumNodes())
	for v := range probs {
		probs[v] = float64(counts[v]) / float64(achieved)
	}
	return probs, achieved, outcome
}

// SearchBudget is SearchCtx under a wall-clock Budget; see FromSourceBudget
// for the partial-result semantics. The returned node set is computed from
// the achieved samples even when err matches checkpoint.ErrPartial.
func SearchBudget(ctx context.Context, g *graph.Graph, sources []graph.NodeID, threshold float64, samples int, seed uint64, budget checkpoint.Budget) ([]graph.NodeID, int, error) {
	if err := validateThreshold(threshold); err != nil {
		return nil, 0, err
	}
	probs, achieved, err := FromSourceBudget(ctx, g, sources, samples, seed, budget)
	if probs == nil {
		return nil, achieved, err
	}
	var out []graph.NodeID
	for v, p := range probs {
		if p >= threshold {
			out = append(out, graph.NodeID(v))
		}
	}
	return out, achieved, err
}
