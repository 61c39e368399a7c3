package infmax

import (
	"context"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/telemetry"
)

// Reverse-reachable (RR) sketch influence maximization, after Borgs,
// Brautbar, Chayes & Lucier (SODA 2014) and Tang et al.'s TIM (SIGMOD
// 2014) — the near-linear-time alternative the paper's related-work section
// discusses. An RR set is the set of nodes that can reach a uniformly random
// target in a random possible world; σ(S) ≈ n · (fraction of RR sets hit by
// S). Greedy max-cover over the RR sets then approximates influence
// maximization.
//
// This implementation draws a fixed number of RR sets (the bound-driven
// phase of TIM is replaced by a caller-chosen budget, which is how the
// sketch is used in practice for comparisons).

// RROptions configures the RR-sketch method.
type RROptions struct {
	// Sets is the number of reverse-reachable sets to sample.
	Sets int
	// Seed drives the sampling.
	Seed uint64
	// Telemetry, when non-nil, receives RR-sampling metrics (infmax.rr_sets,
	// infmax.rr_set_size) and greedy metrics. RRResumable's
	// "infmax.rr.sample" and "infmax.rr.greedy" spans open under the trace
	// span in its ctx.
	Telemetry *telemetry.Registry
}

// RR selects k seeds by greedy max-cover over opts.Sets sampled
// reverse-reachable sets. Gains are in expected-spread units
// (n · covered/Sets). It is RRResumable under context.Background() with a
// zero checkpoint.Config.
func RR(g *graph.Graph, k int, opts RROptions) (Selection, error) {
	return RRResumable(context.Background(), g, k, opts, checkpoint.Config{})
}

// lazyReach performs a lazy live-edge BFS over the given (transpose) graph.
func lazyReach(g *graph.Graph, src graph.NodeID, r *rng.PCG32, visited []bool, out []graph.NodeID) []graph.NodeID {
	start := len(out)
	out = append(out, src)
	visited[src] = true
	for head := start; head < len(out); head++ {
		u := out[head]
		lo, hi := g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			v := g.EdgeTo(i)
			if visited[v] {
				continue
			}
			if r.Bernoulli(g.EdgeProb(i)) {
				visited[v] = true
				out = append(out, v)
			}
		}
	}
	for _, v := range out[start:] {
		visited[v] = false
	}
	return out
}

// nodeSets is a CSR inverted index: the RR-set ids containing each node.
type nodeSets struct {
	off  []int32
	sets []int32
}

func invertSets(n int, setOff []int32, setNodes []graph.NodeID) nodeSets {
	off := make([]int32, n+1)
	for _, v := range setNodes {
		off[v+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	// off[v] serves as v's fill cursor, ending at v's end offset, which is
	// v+1's start: shifting the array up by one restores the starts.
	sets := make([]int32, len(setNodes))
	for si := 0; si+1 < len(setOff); si++ {
		for _, v := range setNodes[setOff[si]:setOff[si+1]] {
			sets[off[v]] = int32(si)
			off[v]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return nodeSets{off: off, sets: sets}
}
