package core

import (
	"context"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
)

// Scratch holds every reusable buffer of a cold sphere query: the index
// traversal scratch, the flat cascade arena, the prefix-median counters, and
// the held-out sampler's visited, set-mark and cascade buffers. On a warmed
// Scratch a prefix-median compute plus its IC stability estimate allocates
// only the result set and the seeds copy, whatever ℓ, the cascade sizes or
// the sample count. A Scratch is not safe for concurrent use: servers pool
// them, and ComputeAll gives each worker its own.
type Scratch struct {
	idx   *index.Scratch
	med   jaccard.Scratch
	elems []graph.NodeID // flat cascade arena (index.FlatCascades)
	off   []int
	cost  costScratch
}

// NewScratch returns a Scratch for queries against x.
func NewScratch(x *index.Index) *Scratch {
	s := &Scratch{idx: x.NewScratch()}
	s.cost.fit(x.Graph().NumNodes())
	return s
}

// Index returns the index traversal scratch inside s, for index-level
// queries (spread) served from the same pool.
func (s *Scratch) Index() *index.Scratch { return s.idx }

// ComputeWithScratch is ComputeFromSet on a caller-owned Scratch — the
// entry point for query serving, where a pool of scratches removes every
// per-query buffer allocation.
func ComputeWithScratch(x *index.Index, seeds []graph.NodeID, opts Options, s *Scratch) Result {
	return computeWithScratch(x, seeds, opts, s, newMetricsSet(telemetryFor(x, opts)))
}

// EstimateCostBudget is the package-level EstimateCostBudget on the
// scratch's buffers: the same estimate, bit for bit, without allocating
// them per call.
func (s *Scratch) EstimateCostBudget(ctx context.Context, g *graph.Graph, seeds, set []graph.NodeID, samples int, seed uint64, model index.Model, budget checkpoint.Budget) (float64, int, error) {
	return s.cost.estimate(ctx, g, seeds, set, samples, seed, model, budget, nil)
}

// median extracts the cascades of seeds from every live world and returns
// their median under alg, with the number of worlds it was taken over. The
// prefix median runs on the flat arena as extracted; the other algorithms
// take the sorted per-world form.
func (s *Scratch) median(x *index.Index, seeds []graph.NodeID, alg MedianAlgorithm) (jaccard.Median, int) {
	if alg != MedianPrefix {
		samples := x.CascadesFromSet(seeds, s.idx)
		if len(samples) == 0 {
			return jaccard.Median{}, 0
		}
		return computeMedian(samples, alg), len(samples)
	}
	s.elems, s.off = x.FlatCascades(seeds, s.idx, s.elems, s.off)
	if len(s.off) == 1 {
		return jaccard.Median{}, 0
	}
	return s.med.Prefix(s.elems, s.off), len(s.off) - 1
}

// costScratch holds the held-out sampler's buffers, grown to the graph on
// first use: visited for the traversal, inSet marking the candidate set,
// and buf for the sampled cascade.
type costScratch struct {
	visited []bool
	inSet   []bool
	buf     []graph.NodeID
}

// fit sizes the per-node buffers for an n-node graph.
func (c *costScratch) fit(n int) {
	if len(c.visited) < n {
		c.visited = make([]bool, n)
		c.inSet = make([]bool, n)
	}
}

// mark sets (or clears) inSet for every member of set inside the graph.
func (c *costScratch) mark(set []graph.NodeID, on bool) {
	for _, v := range set {
		if v >= 0 && int(v) < len(c.inSet) {
			c.inSet[v] = on
		}
	}
}
