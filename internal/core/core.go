// Package core solves the Typical Cascade problem (Problem 1 of the paper):
// given a probabilistic graph and a source node s, find the set of nodes —
// the sphere of influence of s — minimizing the expected Jaccard distance to
// a random cascade from s.
//
// Evaluating the objective exactly is #P-hard (Theorem 1), so the solver
// follows the paper's sampling scheme (§3, Algorithm 2):
//
//  1. extract ℓ sampled cascades of s from a prebuilt cascade index
//     (internal/index), and
//  2. return their Jaccard median (internal/jaccard).
//
// Theorem 2 guarantees that a constant number of samples (independent of the
// graph size) yields a multiplicative (1+O(α)) approximation whenever the
// optimal cost is Ω(α).
//
// The expected cost ρ of the returned set — the *stability* of the sphere of
// influence — is estimated on freshly sampled held-out cascades, so the
// reported cost is an unbiased estimate rather than the (optimistically
// biased) training-sample cost, which is reported separately.
package core

import (
	"context"
	"fmt"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
	"soi/internal/telemetry"
	"soi/internal/worlds"
)

// telemetryFor resolves the registry for a computation: explicit options
// win, then whatever the index carries. May return nil (disabled).
func telemetryFor(x *index.Index, opts Options) *telemetry.Registry {
	if opts.Telemetry != nil {
		return opts.Telemetry
	}
	return x.Telemetry()
}

// metricsSet holds the per-sphere instrumentation handles, resolved once
// per computation so the per-node path never touches the registry maps. A
// nil *metricsSet disables everything.
type metricsSet struct {
	spheres     *telemetry.Counter   // core.spheres_computed
	sphereSize  *telemetry.Histogram // core.sphere_size
	medianEvals *telemetry.Counter   // jaccard.median_evals
	refineDelta *telemetry.Histogram // jaccard.refine_delta_ppm
	medianNS    *telemetry.Histogram // core.median_ns
	costNS      *telemetry.Histogram // core.cost_ns
	wm          *worlds.Metrics
}

func newMetricsSet(tel *telemetry.Registry) *metricsSet {
	if tel == nil {
		return nil
	}
	return &metricsSet{
		spheres:     tel.Counter("core.spheres_computed"),
		sphereSize:  tel.Histogram("core.sphere_size"),
		medianEvals: tel.Counter("jaccard.median_evals"),
		refineDelta: tel.Histogram("jaccard.refine_delta_ppm"),
		medianNS:    tel.Histogram("core.median_ns"),
		costNS:      tel.Histogram("core.cost_ns"),
		wm:          worlds.NewMetrics(tel),
	}
}

// observe records one computed sphere.
func (m *metricsSet) observe(res *Result, med jaccard.Median) {
	if m == nil {
		return
	}
	m.spheres.Inc()
	m.sphereSize.Observe(int64(len(res.Set)))
	m.medianEvals.Add(int64(med.Evals))
	if med.Delta > 0 {
		// Cost deltas are fractions in [0,1]; store parts-per-million so the
		// log-scale buckets resolve them.
		m.refineDelta.Observe(int64(med.Delta * 1e6))
	}
	m.medianNS.Observe(res.MedianTime.Nanoseconds())
	if res.CostTime > 0 {
		m.costNS.Observe(res.CostTime.Nanoseconds())
	}
}

func (m *metricsSet) worldMetrics() *worlds.Metrics {
	if m == nil {
		return nil
	}
	return m.wm
}

// MedianAlgorithm selects how the Jaccard median of the sampled cascades is
// computed.
type MedianAlgorithm int

const (
	// MedianPrefix is the frequency-prefix algorithm of Chierichetti et al.
	// §3.2 — the algorithm the paper runs. 1+O(ε) approximation.
	MedianPrefix MedianAlgorithm = iota
	// MedianMajority keeps elements present in at least half the samples.
	// ε + O(ε^{3/2}) approximation; faster, used in the seed-set argument.
	MedianMajority
	// MedianExact brute-forces all subsets; only for tiny universes.
	MedianExact
	// MedianPrefixRefined runs the prefix algorithm and polishes the result
	// with 1-swap steepest-descent local search — never worse than
	// MedianPrefix, at roughly 2-4x its cost.
	MedianPrefixRefined
)

func (a MedianAlgorithm) String() string {
	switch a {
	case MedianPrefix:
		return "prefix"
	case MedianMajority:
		return "majority"
	case MedianExact:
		return "exact"
	case MedianPrefixRefined:
		return "prefix+refine"
	default:
		return fmt.Sprintf("MedianAlgorithm(%d)", int(a))
	}
}

// Options configures typical-cascade computation.
type Options struct {
	// Algorithm selects the median routine; the zero value is MedianPrefix.
	Algorithm MedianAlgorithm
	// CostSamples is the number of fresh held-out cascades used to estimate
	// the expected cost ρ of the computed set. 0 disables the estimate
	// (ExpectedCost is then NaN-free but reported as -1).
	CostSamples int
	// CostSeed seeds the held-out sampling.
	CostSeed uint64
	// Workers bounds parallelism in ComputeAll; zero and negative values
	// both mean GOMAXPROCS (the library-wide Workers convention).
	Workers int
	// Progress, if non-nil, is called by ComputeAll after each node's sphere
	// is computed with (done, total). Calls are serialized.
	Progress func(done, total int)
	// Model selects the propagation model for the held-out cost estimate.
	// It must match the model the index was built with; the zero value is
	// IC.
	Model index.Model
	// Telemetry, if non-nil, receives sphere metrics (spheres computed,
	// sphere sizes, median candidate evaluations, refinement deltas, median
	// and cost-estimate timings). When nil, the registry attached to the
	// index (if any) is used instead. ComputeAllResumable's
	// "core.compute_all" span opens under the trace span in its ctx.
	Telemetry *telemetry.Registry
}

// Result is the typical cascade (sphere of influence) of a source.
type Result struct {
	// Seeds are the source node(s) queried.
	Seeds []graph.NodeID
	// Set is the computed typical cascade C̃*, sorted.
	Set []graph.NodeID
	// SampleCost is the average Jaccard distance of Set to the ℓ indexed
	// cascades it was derived from (the empirical objective ρ̃).
	SampleCost float64
	// ExpectedCost estimates ρ(Set) — the stability of the sphere — on
	// held-out cascades; -1 when Options.CostSamples == 0.
	ExpectedCost float64
	// MedianTime is the time spent extracting cascades and computing the
	// median (the quantity of the paper's Figure 4, left).
	MedianTime time.Duration
	// CostTime is the time spent estimating the expected cost (Figure 4,
	// right).
	CostTime time.Duration
	// Worlds is the number of index worlds the median was actually computed
	// over. It equals the index's NumWorlds unless worlds were quarantined
	// (a corruption-degraded mmap index), in which case the caller should
	// widen its reported error bound to the surviving sample size.
	Worlds int
}

// Size returns |Set|.
func (r *Result) Size() int { return len(r.Set) }

// Compute returns the typical cascade of node v using the cascades stored
// in the index.
func Compute(x *index.Index, v graph.NodeID, opts Options) Result {
	return ComputeWithScratch(x, []graph.NodeID{v}, opts, NewScratch(x))
}

// ComputeFromSet returns the typical cascade of a seed set (the paper's §5
// extension: the stability of a seed set is the expected cost of its typical
// cascade).
func ComputeFromSet(x *index.Index, seeds []graph.NodeID, opts Options) Result {
	return ComputeWithScratch(x, seeds, opts, NewScratch(x))
}

func computeWithScratch(x *index.Index, seeds []graph.NodeID, opts Options, s *Scratch, m *metricsSet) Result {
	start := time.Now()
	med, live := s.median(x, seeds, opts.Algorithm)
	if live == 0 {
		// Every world quarantined: there is no sample to take a median of.
		// Callers (the daemon) treat Worlds == 0 as "unserveable", distinct
		// from a sphere that happens to be empty.
		return Result{
			Seeds:        append([]graph.NodeID(nil), seeds...),
			SampleCost:   1,
			ExpectedCost: -1,
			MedianTime:   time.Since(start),
		}
	}
	res := Result{
		Seeds:        append([]graph.NodeID(nil), seeds...),
		Set:          med.Set,
		SampleCost:   med.Cost,
		ExpectedCost: -1,
		MedianTime:   time.Since(start),
		Worlds:       live,
	}
	if opts.CostSamples > 0 {
		cs := time.Now()
		// With no deadline and a background context the estimate cannot fail.
		res.ExpectedCost, _, _ = s.cost.estimate(context.Background(), x.Graph(), seeds, med.Set,
			opts.CostSamples, opts.CostSeed, opts.Model, checkpoint.Budget{}, m.worldMetrics())
		res.CostTime = time.Since(cs)
	}
	m.observe(&res, med)
	return res
}

// computeMedian runs a median algorithm other than MedianPrefix, which
// Scratch.median runs on the flat arena instead.
func computeMedian(samples [][]graph.NodeID, alg MedianAlgorithm) jaccard.Median {
	switch alg {
	case MedianMajority:
		return jaccard.Majority(samples, 0.5)
	case MedianExact:
		return jaccard.Exact(samples)
	default:
		return jaccard.PrefixRefined(samples)
	}
}

// EstimateCost estimates ρ_{G,seeds}(set): the expected Jaccard distance
// between set and a fresh random cascade from seeds. It draws `samples`
// cascades lazily (without materializing worlds) with generators split from
// seed, so estimates are reproducible and independent of the index.
func EstimateCost(g *graph.Graph, seeds []graph.NodeID, set []graph.NodeID, samples int, seed uint64) float64 {
	return EstimateCostModel(g, seeds, set, samples, seed, index.IC)
}

// EstimateCostModel is EstimateCost under an explicit propagation model.
// IC cascades are drawn lazily; LT cascades materialize one live-edge world
// per sample (LT's one-in-edge coupling cannot be sampled edge-by-edge
// during a forward traversal).
func EstimateCostModel(g *graph.Graph, seeds []graph.NodeID, set []graph.NodeID, samples int, seed uint64, model index.Model) float64 {
	// With no deadline and a background context the estimate cannot fail.
	cost, _, _ := EstimateCostBudget(context.Background(), g, seeds, set, samples, seed, model, checkpoint.Budget{})
	return cost
}

// ComputeAll computes the typical cascade of every node (Algorithm 2),
// parallelized across Options.Workers. Results are indexed by node id.
// It is ComputeAllResumable under context.Background() with a zero
// checkpoint.Config; a worker panic (the only possible error there) is
// re-raised.
func ComputeAll(x *index.Index, opts Options) []Result {
	out, err := ComputeAllResumable(context.Background(), x, opts, checkpoint.Config{})
	if err != nil {
		panic(err)
	}
	return out
}
