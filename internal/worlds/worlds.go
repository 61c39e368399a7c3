// Package worlds implements possible-world semantics for probabilistic
// graphs: a possible world keeps each edge independently with its
// probability (Eq. 1 of the paper).
//
// Two sampling styles are provided:
//
//   - World: a materialized live-edge sample of the whole graph, stored as a
//     bitset over edge indices. Worlds feed the cascade index and any
//     computation that asks many reachability queries of the same sample.
//   - SampleCascade: a single cascade from one source (or seed set) without
//     materializing the world, flipping edges lazily during BFS. Each edge is
//     examined at most once per traversal, so the lazy flip yields exactly
//     the same distribution over reachable sets as materializing first.
package worlds

import (
	"math/bits"
	"slices"

	"soi/internal/graph"
	"soi/internal/rng"
)

// World is one sampled deterministic subgraph of a probabilistic graph.
// It implements scc.Subgraph.
type World struct {
	g    *graph.Graph
	live []uint64 // bitset over edge indices
}

// Sample draws a possible world: every edge of g is kept independently with
// its probability, using the provided generator.
func Sample(g *graph.Graph, r *rng.PCG32) *World {
	return SampleMetered(g, r, nil)
}

// SampleMetered is Sample with telemetry: m (nil allowed) records the world
// and its edge draws once after sampling, off the per-edge loop.
func SampleMetered(g *graph.Graph, r *rng.PCG32, m *Metrics) *World {
	w := &World{
		g:    g,
		live: make([]uint64, (g.NumEdges()+63)/64),
	}
	for i := 0; i < g.NumEdges(); i++ {
		if r.Bernoulli(g.EdgeProb(int32(i))) {
			w.live[i>>6] |= 1 << uint(i&63)
		}
	}
	m.world(g.NumEdges())
	return w
}

// SampleMany draws count independent worlds using generators split from
// seed, so that world i is identical regardless of how many other worlds
// are drawn or in what order.
func SampleMany(g *graph.Graph, seed uint64, count int) []*World {
	master := rng.New(seed)
	out := make([]*World, count)
	for i := range out {
		out[i] = Sample(g, master.Split(uint64(i)))
	}
	return out
}

// Graph returns the underlying probabilistic graph.
func (w *World) Graph() *graph.Graph { return w.g }

// NumNodes implements scc.Subgraph.
func (w *World) NumNodes() int { return w.g.NumNodes() }

// EdgeLive reports whether edge index i survived in this world.
func (w *World) EdgeLive(i int32) bool {
	return w.live[i>>6]&(1<<uint(i&63)) != 0
}

// NumLiveEdges returns the number of surviving edges.
func (w *World) NumLiveEdges() int {
	total := 0
	for _, word := range w.live {
		total += bits.OnesCount64(word)
	}
	return total
}

// VisitSuccessors implements scc.Subgraph: it visits the heads of all live
// edges leaving u.
func (w *World) VisitSuccessors(u int32, f func(v int32)) {
	lo, hi := w.g.EdgeRange(u)
	for i := lo; i < hi; i++ {
		if w.EdgeLive(i) {
			f(w.g.EdgeTo(i))
		}
	}
}

// Reachable returns the sorted cascade of src in this world. visited is
// caller scratch of length NumNodes, all false on entry and reset on exit;
// results append to out.
func (w *World) Reachable(src graph.NodeID, visited []bool, out []graph.NodeID) []graph.NodeID {
	return w.ReachableFromSet([]graph.NodeID{src}, visited, out)
}

// ReachableFromSet returns the sorted cascade of the seed set in this world.
func (w *World) ReachableFromSet(seeds []graph.NodeID, visited []bool, out []graph.NodeID) []graph.NodeID {
	start := len(out)
	out = w.AppendReachable(seeds, visited, out)
	slices.Sort(out[start:])
	return out
}

// AppendReachable appends the cascade of the seed set in this world to out
// in traversal order: the seeds first (in argument order, repeats dropped),
// then every other reached node in BFS discovery order. It is the traversal
// behind ReachableFromSet, for callers that only count or mark the cascade
// and so have no use for a sort. visited is as for Reachable.
func (w *World) AppendReachable(seeds []graph.NodeID, visited []bool, out []graph.NodeID) []graph.NodeID {
	start := len(out)
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			out = append(out, s)
		}
	}
	for head := start; head < len(out); head++ {
		u := out[head]
		lo, hi := w.g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			if !w.EdgeLive(i) {
				continue
			}
			v := w.g.EdgeTo(i)
			if !visited[v] {
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

// SampleCascade draws one random cascade from src without materializing a
// world: edges are flipped lazily as the BFS reaches their tails. visited is
// caller scratch (length NumNodes, all false, reset on exit); the cascade is
// appended to out and returned sorted.
func SampleCascade(g *graph.Graph, src graph.NodeID, r *rng.PCG32, visited []bool, out []graph.NodeID) []graph.NodeID {
	return SampleCascadeFromSet(g, []graph.NodeID{src}, r, visited, out)
}

// SampleCascadeFromSet is SampleCascade for a seed set: the cascade is the
// union of nodes reached from any seed through live edges, returned sorted.
func SampleCascadeFromSet(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32, visited []bool, out []graph.NodeID) []graph.NodeID {
	start := len(out)
	out = SampleCascadeFromSetMetered(g, seeds, r, visited, out, nil)
	slices.Sort(out[start:])
	return out
}

// SampleCascadeFromSetMetered is the lazy sampling traversal behind
// SampleCascadeFromSet, with telemetry: m (nil allowed) records the cascade
// size and edge draws once per cascade. The cascade is appended to out
// unsorted, in traversal order: the seeds first (in argument order, repeats
// dropped), then every other reached node in BFS discovery order. Callers
// that only count or mark the cascade use it as is; the others sort it (as
// SampleCascadeFromSet does). Sorting or not, the random draws are the same.
func SampleCascadeFromSetMetered(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32, visited []bool, out []graph.NodeID, m *Metrics) []graph.NodeID {
	start := len(out)
	flips := 0
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			out = append(out, s)
		}
	}
	for head := start; head < len(out); head++ {
		u := out[head]
		lo, hi := g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			v := g.EdgeTo(i)
			if visited[v] {
				continue
			}
			flips++
			if r.Bernoulli(g.EdgeProb(i)) {
				visited[v] = true
				out = append(out, v)
			}
		}
	}
	res := out[start:]
	for _, v := range res {
		visited[v] = false
	}
	m.cascade(len(res), flips)
	return out
}
