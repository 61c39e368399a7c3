package graph

import "slices"

// Traversal helpers over the deterministic topology (probabilities ignored).
// They are primarily reference implementations used to validate the faster
// index-based machinery, plus building blocks for deterministic queries.

// Reachable returns the sorted set of nodes reachable from src through
// directed edges, including src itself.
func (g *Graph) Reachable(src NodeID) []NodeID {
	visited := make([]bool, g.n)
	return g.ReachableInto(src, visited, nil)
}

// ReachableInto is Reachable with caller-provided scratch to avoid
// allocation in hot loops. visited must have length NumNodes and be all
// false; it is reset to all false before returning. The result is appended
// to out (which may be nil) and returned in BFS-discovery order from src,
// then sorted.
func (g *Graph) ReachableInto(src NodeID, visited []bool, out []NodeID) []NodeID {
	start := len(out)
	out = append(out, src)
	visited[src] = true
	for head := start; head < len(out); head++ {
		u := out[head]
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			v := g.adj[i]
			if !visited[v] {
				visited[v] = true
				out = append(out, v)
			}
		}
	}
	for _, v := range out[start:] {
		visited[v] = false
	}
	slices.Sort(out[start:])
	return out
}

// ReachableFromSet returns the sorted set of nodes reachable from any node
// in srcs (the union of their reachable sets; cascades are closed under
// union of sources).
func (g *Graph) ReachableFromSet(srcs []NodeID) []NodeID {
	visited := make([]bool, g.n)
	var out []NodeID
	for _, s := range srcs {
		if visited[s] {
			continue
		}
		visited[s] = true
		out = append(out, s)
	}
	for head := 0; head < len(out); head++ {
		u := out[head]
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			v := g.adj[i]
			if !visited[v] {
				visited[v] = true
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return out
}
