// Package index implements the cascade index of the paper (§4, Algorithm 1).
//
// The index stores, for each of ℓ sampled possible worlds G_1..G_ℓ:
//
//  1. the condensation of G_i's strongly connected components, optionally
//     transitively reduced to save space, and
//  2. for every vertex v, the identifier of v's component in G_i.
//
// Every vertex in an SCC has the same reachability set, so the cascade of v
// in G_i is recovered by walking the condensation from v's component and
// unioning the member lists of the reached components — time linear in the
// output plus the condensation edges visited, independent of |E(G_i)|.
package index

import (
	"context"
	"slices"
	"sync"
	"time"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/scc"
	"soi/internal/telemetry"
	"soi/internal/worlds"
)

// Model selects the propagation model whose live-edge distribution the
// index samples.
type Model int

const (
	// IC is the Independent Cascade model: every edge survives
	// independently with its probability.
	IC Model = iota
	// LT is the Linear Threshold model: every node keeps at most one
	// incoming edge, chosen with probability equal to its weight (the
	// Kempe et al. live-edge equivalence). Edge weights must satisfy the
	// per-node budget Σ_in <= 1; Build validates this.
	LT
)

// Options configures index construction.
type Options struct {
	// Samples is ℓ, the number of possible worlds to index. The paper's
	// experiments use 1000; Theorem 2 shows O(log(1/α)/α²) suffices for a
	// (1+O(α)) approximation.
	Samples int
	// Seed drives the deterministic sampling of worlds.
	Seed uint64
	// Workers bounds build parallelism; zero and negative values both mean
	// GOMAXPROCS (the convention shared by every Workers knob in this
	// library).
	Workers int
	// Progress, if non-nil, is called after each world is indexed with
	// (done, total). Calls are serialized.
	Progress func(done, total int)
	// TransitiveReduction applies the Aho–Garey–Ullman reduction to each
	// condensation (the paper's space optimization). Costs build time,
	// saves index space and query edge traversals.
	TransitiveReduction bool
	// MaxExactReduction is the component threshold for the exact reduction
	// (see scc.Reduce); 0 selects the default.
	MaxExactReduction int
	// Model selects IC (default) or LT live-edge sampling.
	Model Model
	// Telemetry, if non-nil, receives build metrics (worlds sampled, SCC
	// condensation sizes, per-world build timings, pool utilization). The
	// registry is retained on the built Index so query-time consumers
	// (greedy selection) meter against it too. The "index.build" phase span
	// opens under the trace span in BuildResumable's ctx, if any.
	Telemetry *telemetry.Registry
}

// worldEntry is the per-world part of the index.
type worldEntry struct {
	comp      []int32 // node -> component id (reverse-topological numbering)
	memberOff []int32 // CSR offsets: members of comp c
	members   []int32
	dag       scc.SliceGraph // (reduced) condensation
}

// Index is the cascade index. It is immutable after Build and safe for
// concurrent queries, provided each goroutine uses its own Scratch.
//
// An index is backed either by eagerly decoded entries (Build, Read) or by
// a lazy block window (OpenMmap), which faults worlds in on first touch and
// may quarantine corrupt ones. Query methods treat a quarantined world as
// contributing nothing — estimator denominators use LiveWorlds, and sample
// collections skip it — so corruption shrinks the sample instead of
// skewing it.
type Index struct {
	g       *graph.Graph
	entries []worldEntry // eager backing (empty when lazy != nil)
	lazy    *lazyWorlds  // page-on-demand backing (OpenMmap)
	tel     *telemetry.Registry

	fpOnce sync.Once
	fp     uint64
}

// world returns world i's entry, faulting it in for a lazy index; nil means
// the world is quarantined and must contribute nothing.
func (x *Index) world(i int) *worldEntry {
	if x.lazy != nil {
		return x.lazy.world(i)
	}
	return &x.entries[i]
}

// SetTelemetry attaches a registry to an index (typically one loaded from
// disk, which has none) so greedy selection over it can be metered.
func (x *Index) SetTelemetry(reg *telemetry.Registry) { x.tel = reg }

// Telemetry returns the registry attached at build or SetTelemetry time;
// nil means unmetered.
func (x *Index) Telemetry() *telemetry.Registry { return x.tel }

// Build samples opts.Samples possible worlds of g and indexes them. It is
// BuildResumable under context.Background() with a zero checkpoint.Config.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	return BuildResumable(context.Background(), g, opts, checkpoint.Config{})
}

// buildMetrics carries per-world build instrumentation. The zero value
// (all-nil handles) is the disabled state.
type buildMetrics struct {
	wm    *worlds.Metrics
	comps *telemetry.Histogram // index.components: condensation sizes
	nanos *telemetry.Histogram // index.world_build_ns: per-world build time
}

func newBuildMetrics(tel *telemetry.Registry) buildMetrics {
	return buildMetrics{
		wm:    worlds.NewMetrics(tel),
		comps: tel.Histogram("index.components"),
		nanos: tel.Histogram("index.world_build_ns"),
	}
}

func buildEntry(g *graph.Graph, r *rng.PCG32, opts Options, bm buildMetrics) worldEntry {
	var start time.Time
	if bm.nanos != nil {
		start = time.Now()
	}
	var world *worlds.World
	if opts.Model == LT {
		world = worlds.SampleLTMetered(g, r, bm.wm)
	} else {
		world = worlds.SampleMetered(g, r, bm.wm)
	}
	dec := scc.Tarjan(world)
	dag := scc.Condense(world, dec)
	if opts.TransitiveReduction {
		dag = scc.Reduce(dag, opts.MaxExactReduction)
	}
	// Rebuild the members CSR locally so the entry owns flat storage.
	n := g.NumNodes()
	off := make([]int32, dec.NumComps+1)
	for _, c := range dec.Comp {
		off[c+1]++
	}
	for c := 1; c <= dec.NumComps; c++ {
		off[c] += off[c-1]
	}
	members := make([]int32, n)
	cursor := make([]int32, dec.NumComps)
	copy(cursor, off[:dec.NumComps])
	for v := int32(0); int(v) < n; v++ {
		c := dec.Comp[v]
		members[cursor[c]] = v
		cursor[c]++
	}
	bm.comps.Observe(int64(dec.NumComps))
	if bm.nanos != nil {
		bm.nanos.Observe(time.Since(start).Nanoseconds())
	}
	return worldEntry{comp: dec.Comp, memberOff: off, members: members, dag: dag}
}

// NumWorlds returns ℓ, quarantined worlds included (see LiveWorlds).
func (x *Index) NumWorlds() int {
	if x.lazy != nil {
		return len(x.lazy.dir)
	}
	return len(x.entries)
}

// Graph returns the indexed probabilistic graph.
func (x *Index) Graph() *graph.Graph { return x.g }

// NumComponents returns the number of SCCs in world i. For a lazy index it
// is answered from the block directory without faulting the block in.
func (x *Index) NumComponents(i int) int {
	if x.lazy != nil {
		return int(x.lazy.dir[i].Aux)
	}
	return len(x.entries[i].dag)
}

// CondensationEdges returns the number of condensation edges stored for
// world i (after reduction, if enabled); 0 for a quarantined world.
func (x *Index) CondensationEdges(i int) int {
	e := x.world(i)
	if e == nil {
		return 0
	}
	return scc.NumEdges(e.dag)
}

// Scratch holds reusable per-goroutine buffers for queries.
type Scratch struct {
	mark  []bool
	comps []int32
}

// NewScratch returns a Scratch sized for this index. Sizing uses
// NumComponents, so for a lazy index no blocks are faulted in.
func (x *Index) NewScratch() *Scratch {
	maxComps := 0
	for i := 0; i < x.NumWorlds(); i++ {
		if c := x.NumComponents(i); c > maxComps {
			maxComps = c
		}
	}
	return &Scratch{mark: make([]bool, maxComps)}
}

// reach fills s.comps with the components reachable from seeds in world e,
// in BFS order, and marks each one. It is the one condensation traversal
// behind every cascade query; the caller walks s.comps and clears each
// component's mark.
func (s *Scratch) reach(e *worldEntry, seeds []graph.NodeID) {
	s.comps = s.comps[:0]
	for _, v := range seeds {
		c := e.comp[v]
		if !s.mark[c] {
			s.mark[c] = true
			s.comps = append(s.comps, c)
		}
	}
	for head := 0; head < len(s.comps); head++ {
		for _, d := range e.dag[s.comps[head]] {
			if !s.mark[d] {
				s.mark[d] = true
				s.comps = append(s.comps, d)
			}
		}
	}
}

// appendCascade appends the cascade of seeds in world e to out, unsorted:
// reached components in BFS order, each one's members in id order.
func (s *Scratch) appendCascade(e *worldEntry, seeds []graph.NodeID, out []graph.NodeID) []graph.NodeID {
	s.reach(e, seeds)
	for _, c := range s.comps {
		s.mark[c] = false
		out = append(out, e.members[e.memberOff[c]:e.memberOff[c+1]]...)
	}
	return out
}

// Cascade returns the sorted cascade of v in world i, appended to out.
func (x *Index) Cascade(v graph.NodeID, i int, s *Scratch, out []graph.NodeID) []graph.NodeID {
	return x.CascadeFromSet([]graph.NodeID{v}, i, s, out)
}

// CascadeFromSet returns the sorted cascade of a seed set in world i (the
// union of the members' cascades), appended to out. A quarantined world
// returns out unchanged.
func (x *Index) CascadeFromSet(seeds []graph.NodeID, i int, s *Scratch, out []graph.NodeID) []graph.NodeID {
	e := x.world(i)
	if e == nil {
		return out
	}
	start := len(out)
	out = s.appendCascade(e, seeds, out)
	slices.Sort(out[start:])
	return out
}

// CascadeSize returns |cascade of v in world i| without materializing it.
func (x *Index) CascadeSize(v graph.NodeID, i int, s *Scratch) int {
	return x.CascadeSizeFromSet([]graph.NodeID{v}, i, s)
}

// CascadeSizeFromSet returns the cascade size of a seed set in world i,
// or 0 for a quarantined world.
func (x *Index) CascadeSizeFromSet(seeds []graph.NodeID, i int, s *Scratch) int {
	e := x.world(i)
	if e == nil {
		return 0
	}
	s.reach(e, seeds)
	total := 0
	for _, c := range s.comps {
		s.mark[c] = false
		total += int(e.memberOff[c+1] - e.memberOff[c])
	}
	return total
}

// VisitCascadeComps calls f(c, size) for every component in the cascade of
// seeds in world i. It is the allocation-free primitive the influence-
// maximization greedy uses for marginal-gain computations. A quarantined
// world visits nothing.
func (x *Index) VisitCascadeComps(seeds []graph.NodeID, i int, s *Scratch, f func(c int32, size int32)) {
	e := x.world(i)
	if e == nil {
		return
	}
	s.reach(e, seeds)
	for _, c := range s.comps {
		s.mark[c] = false
		f(c, e.memberOff[c+1]-e.memberOff[c])
	}
}

// Cascades returns the cascades of v in every live world, each sorted. This
// is the per-node sample collection handed to the Jaccard median
// (Algorithm 2). Quarantined worlds are skipped — not returned as empty
// cascades, which would bias the median — so len(result) is LiveWorlds.
func (x *Index) Cascades(v graph.NodeID, s *Scratch) [][]graph.NodeID {
	return x.CascadesFromSet([]graph.NodeID{v}, s)
}

// CascadesFromSet returns the cascades of a seed set in every live world,
// each sorted. It is FlatCascades split per world; the cascades share one
// backing array but are capped, so appending to one never overwrites the
// next.
func (x *Index) CascadesFromSet(seeds []graph.NodeID, s *Scratch) [][]graph.NodeID {
	elems, off := x.FlatCascades(seeds, s, nil, nil)
	out := make([][]graph.NodeID, len(off)-1)
	for j := range out {
		c := elems[off[j]:off[j+1]:off[j+1]]
		slices.Sort(c)
		out[j] = c
	}
	return out
}

// FlatCascades extracts the cascade of a seed set in every live world in
// one pass, into caller-owned storage: it truncates elems and off, reusing
// their capacity, and fills them so that the j-th live world's cascade is
// elems[off[j]:off[j+1]] and len(off) is LiveWorlds+1. Each cascade holds
// distinct nodes in traversal order, unsorted — the form the flat Jaccard
// median consumes without a per-world sort. Quarantined worlds are skipped
// (see Cascades).
func (x *Index) FlatCascades(seeds []graph.NodeID, s *Scratch, elems []graph.NodeID, off []int) ([]graph.NodeID, []int) {
	elems, off = elems[:0], append(off[:0], 0)
	for i := 0; i < x.NumWorlds(); i++ {
		e := x.world(i)
		if e == nil {
			continue
		}
		elems = s.appendCascade(e, seeds, elems)
		off = append(off, len(elems))
	}
	return elems, off
}

// MemoryFootprint returns an estimate of the index's resident bytes, used
// by the space-ablation benchmarks. For a lazy index only the currently
// resident (faulted-in) worlds count — that is the point of the format.
func (x *Index) MemoryFootprint() int64 {
	var total int64
	footprint := func(e *worldEntry) {
		total += int64(len(e.comp))*4 + int64(len(e.memberOff))*4 + int64(len(e.members))*4
		total += int64(len(e.dag)) * 24 // slice headers
		for _, s := range e.dag {
			total += int64(len(s)) * 4
		}
	}
	if x.lazy != nil {
		for i := range x.lazy.loaded {
			if e := x.lazy.loaded[i].Load(); e != nil {
				footprint(e)
			}
		}
		total += int64(len(x.lazy.dir)) * (blockfile.EntrySize + 16)
		return total
	}
	for i := range x.entries {
		footprint(&x.entries[i])
	}
	return total
}
