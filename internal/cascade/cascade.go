// Package cascade implements the Independent Cascade (IC) propagation model
// of Kempe, Kleinberg & Tardos (KDD 2003) and estimators for the expected
// spread σ(S).
//
// In the IC model time unfolds in discrete steps: when a node u first
// becomes active at step t, it gets a single chance to activate each
// currently inactive out-neighbor v, succeeding with probability p(u,v); a
// success activates v at step t+1. The set of nodes eventually activated
// from a seed set has exactly the distribution of live-edge reachability
// (the possible-world cascades in internal/worlds); this package adds the
// step structure — needed to synthesize propagation logs — and the σ(S)
// estimators used by influence maximization.
package cascade

import (
	"context"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/rng"
)

// Activation records one node activation during a simulation.
type Activation struct {
	Node graph.NodeID
	Step int32
}

// Simulate runs one IC cascade from seeds and returns the activations in
// activation order (seeds first, at step 0). visited is caller scratch of
// length NumNodes, all false on entry, reset on exit.
func Simulate(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32, visited []bool) []Activation {
	out := make([]Activation, 0, len(seeds)*4)
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			out = append(out, Activation{Node: s, Step: 0})
		}
	}
	for head := 0; head < len(out); head++ {
		u := out[head]
		lo, hi := g.EdgeRange(u.Node)
		for i := lo; i < hi; i++ {
			v := g.EdgeTo(i)
			if visited[v] {
				continue
			}
			if r.Bernoulli(g.EdgeProb(i)) {
				visited[v] = true
				out = append(out, Activation{Node: v, Step: u.Step + 1})
			}
		}
	}
	for _, a := range out {
		visited[a.Node] = false
	}
	return out
}

// ExpectedSpread estimates σ(seeds) by Monte Carlo over trials independent
// IC simulations, parallelized across workers (zero or negative =
// GOMAXPROCS). The result is deterministic for a fixed seed regardless of
// worker count. It is ExpectedSpreadResumable under context.Background()
// with a zero checkpoint.Config; a worker panic (the only possible error
// there) is re-raised.
func ExpectedSpread(g *graph.Graph, seeds []graph.NodeID, trials int, seed uint64, workers int) float64 {
	est, err := ExpectedSpreadResumable(context.Background(), g, seeds, trials, seed, workers, checkpoint.Config{})
	if err != nil {
		panic(err)
	}
	return est
}

// simulateSize is Simulate without recording steps; returns the cascade size.
func simulateSize(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32, visited []bool) int {
	queue := make([]graph.NodeID, 0, len(seeds)*4)
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		lo, hi := g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			v := g.EdgeTo(i)
			if visited[v] {
				continue
			}
			if r.Bernoulli(g.EdgeProb(i)) {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	for _, v := range queue {
		visited[v] = false
	}
	return len(queue)
}

// SpreadFromIndex estimates σ(seeds) as the average cascade size over the
// worlds of a prebuilt cascade index: σ̂(S) = (1/ℓ) Σ_i |R_S(G_i)|. Both
// influence-maximization methods in the paper are evaluated with the same
// sampled worlds; sharing the index keeps that comparison exact.
func SpreadFromIndex(x *index.Index, seeds []graph.NodeID, s *index.Scratch) float64 {
	total := 0
	for i := 0; i < x.NumWorlds(); i++ {
		total += x.CascadeSizeFromSet(seeds, i, s)
	}
	// Quarantined worlds contribute 0 to the sum, so averaging over the
	// live count — taken after the loop, when any fault-in quarantines have
	// happened — keeps the estimate unbiased over the surviving sample.
	live := x.LiveWorlds()
	if live == 0 {
		return 0
	}
	return float64(total) / float64(live)
}
