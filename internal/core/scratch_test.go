package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// referenceEstimate is the estimator as first written: draw each held-out
// cascade in sorted form and take jaccard.Distance, over the first `limit`
// samples of the stream, averaged over `limit`.
func referenceEstimate(g *graph.Graph, seeds, set []graph.NodeID, limit int, seed uint64, model index.Model) float64 {
	master := rng.New(seed)
	visited := make([]bool, g.NumNodes())
	total := 0.0
	for i := 0; i < limit; i++ {
		r := master.Split(uint64(i))
		var c []graph.NodeID
		if model == index.LT {
			c = worlds.SampleLT(g, r).ReachableFromSet(seeds, visited, nil)
		} else {
			c = worlds.SampleCascadeFromSet(g, seeds, r, visited, nil)
		}
		total += jaccard.Distance(set, c)
	}
	return total / float64(limit)
}

// TestEstimateCostMatchesSortedReference holds mark-counted stability to the
// sorted-merge reference bitwise, for IC and LT, through the package entry
// point and a reused Scratch, with and without a truncating budget.
func TestEstimateCostMatchesSortedReference(t *testing.T) {
	ctx := context.Background()
	ic := sparseGraph(t, 31, 200)
	lt := ltGraph(t, 32, 150)
	sphere := Compute(buildIndex(t, ic, 32, 6), 7, Options{}).Set
	all := make([]graph.NodeID, ic.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		model index.Model
		seeds []graph.NodeID
		set   []graph.NodeID
	}{
		{"ic/sphere", ic, index.IC, []graph.NodeID{7}, sphere},
		{"ic/seed-set", ic, index.IC, []graph.NodeID{3, 90, 3}, []graph.NodeID{3, 4, 90, 150}},
		{"ic/empty-set", ic, index.IC, []graph.NodeID{11}, nil},
		{"ic/every-node", ic, index.IC, []graph.NodeID{11}, all},
		{"ic/out-of-graph-ids", ic, index.IC, []graph.NodeID{5}, []graph.NodeID{5, 400, 9000}},
		{"lt/seed-set", lt, index.LT, []graph.NodeID{1, 2}, []graph.NodeID{1, 2, 3, 40, 41}},
		{"lt/single", lt, index.LT, []graph.NodeID{9}, []graph.NodeID{9}},
	}
	const samples = 120
	s := NewScratch(buildIndex(t, ic, 4, 1))
	for _, tc := range cases {
		want := referenceEstimate(tc.g, tc.seeds, tc.set, samples, 77, tc.model)
		got, achieved, err := EstimateCostBudget(ctx, tc.g, tc.seeds, tc.set, samples, 77, tc.model, checkpoint.Budget{})
		if err != nil || achieved != samples || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: EstimateCostBudget = %v (%d, %v), reference %v", tc.name, got, achieved, err, want)
		}
		got, _, _ = s.EstimateCostBudget(ctx, tc.g, tc.seeds, tc.set, samples, 77, tc.model, checkpoint.Budget{})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Scratch.EstimateCostBudget = %v, reference %v", tc.name, got, want)
		}

		// A deadline already past lets exactly one sample through.
		past := checkpoint.Budget{Deadline: time.Now().Add(-time.Second), MinWorlds: 1}
		got, achieved, err = s.EstimateCostBudget(ctx, tc.g, tc.seeds, tc.set, samples, 77, tc.model, past)
		var pe *checkpoint.PartialError
		if !errors.As(err, &pe) || achieved != 1 {
			t.Fatalf("%s: truncated estimate: achieved %d, err %v; want 1 and a PartialError", tc.name, achieved, err)
		}
		wantPE := checkpoint.PartialError{Achieved: 1, Requested: samples, Bound: checkpoint.ErrorBound(1)}
		if *pe != wantPE {
			t.Fatalf("%s: partial error %+v, want %+v", tc.name, *pe, wantPE)
		}
		if want := referenceEstimate(tc.g, tc.seeds, tc.set, 1, 77, tc.model); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: truncated estimate %v, reference %v", tc.name, got, want)
		}
	}

	// A canceled estimate still clears its set marks.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := s.EstimateCostBudget(canceled, ic, []graph.NodeID{1}, all, samples, 1, index.IC, checkpoint.Budget{}); err == nil {
		t.Fatal("canceled estimate returned no error")
	}
	for v, on := range s.cost.inSet {
		if on {
			t.Fatalf("inSet[%d] left marked", v)
		}
	}
}

// TestColdComputeAllocs pins the allocation profile of a cold query on a
// warmed Scratch: the prefix-median compute plus its IC stability estimate
// allocates the result set and the seeds copy, and nothing that grows with
// ℓ, the cascade sizes or the number of held-out samples.
func TestColdComputeAllocs(t *testing.T) {
	g := sparseGraph(t, 41, 400)
	for _, tc := range []struct {
		ell, samples int
		seeds        []graph.NodeID
	}{
		{8, 5, []graph.NodeID{3}},
		{96, 200, []graph.NodeID{3}},
		{96, 200, []graph.NodeID{3, 50, 120, 399}},
	} {
		x := buildIndex(t, g, tc.ell, 9)
		s := NewScratch(x)
		opts := Options{CostSamples: tc.samples, CostSeed: 2}
		run := func() {
			r := ComputeWithScratch(x, tc.seeds, opts, s)
			_, _, _ = s.EstimateCostBudget(context.Background(), g, tc.seeds, r.Set, tc.samples, 3, index.IC, checkpoint.Budget{})
		}
		run() // warm the buffers
		if n := testing.AllocsPerRun(20, run); n > 2 {
			t.Errorf("ℓ=%d samples=%d seeds=%v: %v allocations per cold query, want at most 2", tc.ell, tc.samples, tc.seeds, n)
		}
	}
}

// BenchmarkComputeCold measures one cold sphere query on a warmed Scratch
// — flat extraction, prefix median and a 200-sample stability estimate —
// rotating over sources of a 2000-node sparse graph indexed with ℓ = 200.
func BenchmarkComputeCold(b *testing.B) {
	g := sparseGraph(b, 1, 2000)
	x, err := index.Build(g, index.Options{Samples: 200, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := NewScratch(x)
	opts := Options{CostSamples: 200, CostSeed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputeWithScratch(x, []graph.NodeID{graph.NodeID(i % 2000)}, opts, s)
	}
}
