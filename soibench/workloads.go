package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/jaccard"
	"soi/internal/rng"
	"soi/internal/router"
	"soi/internal/scc"
	"soi/internal/sketch"
	"soi/internal/worlds"
)

// serverCostSamples is soid's default held-out sample count, which the
// requests leave in place.
const serverCostSamples = 200

// env is one benchmark run.
type env struct {
	ctx       context.Context
	spec      *Spec
	ws        WorkloadSpec
	name      string
	seed      uint64
	seconds   float64
	traced    bool
	bin, dir  string
	procs     int
	fails     failures
	attempted int
}

func (e *env) wrong() int {
	n := 0
	for cause, c := range e.fails {
		if strings.Contains(cause, "wrong answer") {
			n += c
		}
	}
	return n
}

// target is what a workload serves: one artifact triple per soid and,
// with a topology, a soigw in front.
type target struct {
	shards  []*artifacts
	sharded *shardedFix // nil without a gateway
	mmap    bool
	chk     checker
	nodes   []int64 // original ids requests draw from
}

func (t *target) bytes() int64 {
	var n int64
	for _, a := range t.shards {
		n += a.bytes()
	}
	return n
}

func (e *env) start(t *target, inproc bool, rec *Recorder) (*deployment, error) {
	var topo *router.Topology
	topoPath := ""
	if t.sharded != nil {
		topo, topoPath = t.sharded.topo, t.sharded.topoPath
	}
	if inproc {
		return startInproc(t.shards, t.mmap, topo, rec)
	}
	return startProcesses(e.ctx, e.bin, e.dir, e.procs, t.shards, t.mmap, topoPath)
}

// buildTarget builds the serve fixture for gf: one index for serve-cold,
// partitioned shards with stores and sketches for serve-hot.
func (e *env) buildTarget(gf *graphFix, rec *Recorder) (*target, error) {
	ws := e.ws
	if ws.Shards > 0 {
		f, err := buildSharded(e.dir, gf, ws, e.seed, rec)
		if err != nil {
			return nil, err
		}
		return &target{shards: f.shards, sharded: f, chk: shardedChecker(f), nodes: gf.orig}, nil
	}
	a, err := buildArtifacts(gf, filepath.Join(e.dir, "cold"), ws.Worlds, e.seed, 0, false, rec)
	if err != nil {
		return nil, err
	}
	return &target{shards: []*artifacts{a}, chk: singleChecker(a), nodes: gf.orig}, nil
}

// requests draws the run's requests: rate × seconds of traffic.
func (e *env) requests(nodes []int64, seconds float64, seed uint64) []Request {
	n := max(1, int(e.ws.NominalRPS*seconds))
	return genRequests(e.ws, nodes, n, seed, e.name == "build")
}

func newClient(inflight int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: inflight, MaxIdleConns: 4 * inflight}}
}

// drive runs the open loop against dep, returning the outcomes and the
// serving processes' CPU time spent meanwhile.
func (e *env) drive(dep *deployment, send Sender, reqs []Request, rate float64) ([]Outcome, time.Duration) {
	// Collect the set-up's garbage now, so this process's collector does
	// not compete with the serving processes for the two CPUs mid-run.
	runtime.GC()
	before := dep.usage()
	outs := openLoop(e.ctx, send, reqs, rate, e.spec.MaxInflight)
	after := dep.usage()
	e.attempted += len(outs)
	return outs, after.cpu - before.cpu
}

// serveMetrics are the end-to-end figures of a traffic phase.
func (e *env) serveMetrics(outs []Outcome, cpu time.Duration) []Metric {
	warm := int(e.ws.WarmupShare * float64(len(outs)))
	st := loadStats(outs[warm:])
	all := loadStats(outs)
	return []Metric{
		p50("latency_p50_ms", "ms", st.Latency),
		{Name: "cpu_ms_per_req", Unit: "ms", Value: ms(cpu) / float64(max(1, all.Completed)), Samples: all.Completed},
	}
}

// setupRepeats is how many times a run sets up; each repetition starts
// from a collected heap so that the timings compare like with like.
func (e *env) setupRepeats() int {
	if e.ws.SetupRepeats > 0 {
		return e.ws.SetupRepeats
	}
	return e.spec.SetupRepeats
}

func timeIt(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// runServe is serve-cold and serve-hot.
func (e *env) runServe() (Result, error) {
	if e.traced {
		return e.runServeTraced()
	}
	var setups, builds []float64
	var t *target
	var dep *deployment
	defer func() { dep.stop() }()
	for i := 0; i < e.setupRepeats(); i++ {
		dep.stop()
		dep = nil
		runtime.GC()
		s, err := timeIt(func() error {
			gf, err := genGraph(e.dir, e.ws)
			if err != nil {
				return err
			}
			b, err := timeIt(func() (err error) { t, err = e.buildTarget(gf, nil); return err })
			if err != nil {
				return err
			}
			builds = append(builds, b)
			dep, err = e.start(t, false, nil)
			return err
		})
		if err != nil {
			return Result{}, err
		}
		setups = append(setups, s)
	}
	reqs := e.requests(t.nodes, e.seconds, e.seed)
	outs, cpu := e.drive(dep, httpSender(newClient(e.spec.MaxInflight), dep.base, nil), reqs, e.ws.NominalRPS)
	checkAll(outs, reqs, t.chk, e.fails)
	res := Result{Metrics: []Metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), Samples: len(setups)},
		{Name: "build_s", Unit: "s", Value: median(builds), Samples: len(builds)},
		{Name: "artifact_mb", Unit: "MB", Value: float64(t.bytes()) / 1e6, Samples: len(t.shards)},
		{Name: "rss_mb", Unit: "MB", Value: dep.usage().peakMB, Samples: len(dep.daemons)},
	}}
	res.Metrics = append(res.Metrics, e.serveMetrics(outs, cpu)...)
	e.printSummary(outs)
	return res, nil
}

// pipeline is the build workload's measured work: index, spheres, sketch,
// their saves, and the index reopened with index.OpenMmap.
func (e *env) pipeline(gf *graphFix, rec *Recorder) (*artifacts, *index.Index, error) {
	a, err := buildArtifacts(gf, filepath.Join(e.dir, "build"), e.ws.Worlds, e.seed, e.ws.SketchK, true, rec)
	if err != nil {
		return nil, nil, err
	}
	sp := rec.Start("index.open", "build", 0)
	mm, err := index.OpenMmap(a.idxPath, gf.g, index.MmapOptions{})
	sp.End()
	return a, mm, err
}

// checkArtifacts reopens what the pipeline wrote and checks that each file
// carries the fingerprint of what was written: the mapped index, the
// eagerly loaded index, the sketch's source-index key, the sphere store's
// contents and the fingerprint soid reports for the files it serves.
func (e *env) checkArtifacts(a *artifacts, mm *index.Index, dep *deployment) {
	check := func(what string, ok bool) {
		e.attempted++
		if !ok {
			e.fails.add("build: wrong answer: " + what)
		}
	}
	fp := a.x.Fingerprint()
	check("mmap index fingerprint differs from the saved index", mm.Fingerprint() == fp)
	sk, err := sketch.LoadFile(a.skPath)
	check("sketch reload failed or is keyed to another index", err == nil && sk.IndexFingerprint() == fp)
	spheres, err := core.LoadSpheresFile(a.spherePath)
	same := err == nil && len(spheres) == len(a.spheres)
	for v := 0; same && v < len(spheres); v++ {
		same = spheres[v].SampleCost == a.spheres[v].SampleCost && slices.Equal(spheres[v].Set, a.spheres[v].Set)
	}
	check("sphere store reload differs from the computed spheres", same)
	var info struct {
		Fingerprint string `json:"index_fingerprint"`
		Mmap        bool   `json:"mmap"`
	}
	resp, err := http.Get(dep.base + "/v1/info")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
	}
	// Compared as numbers: /v1/info prints the fingerprint without the
	// leading zeros /readyz keeps.
	served, perr := strconv.ParseUint(info.Fingerprint, 16, 64)
	check("soid -mmap serves another index fingerprint", err == nil && perr == nil && info.Mmap && served == fp)
}

// runBuild is the build workload.
func (e *env) runBuild() (Result, error) {
	var setups []float64
	var gf *graphFix
	for i := 0; i < e.setupRepeats(); i++ {
		gf = nil // so every repetition starts from the same live heap
		runtime.GC()
		s, err := timeIt(func() (err error) { gf, err = genGraph(e.dir, e.ws); return err })
		if err != nil {
			return Result{}, err
		}
		setups = append(setups, s)
	}
	var rec *Recorder
	if e.traced {
		rec = newRecorder()
	}
	// The traced run builds once, so each layer span is one pipeline's.
	reps := e.spec.BuildRepeats
	if e.traced {
		reps = 1
	}
	var a *artifacts
	var mm *index.Index
	var builds []float64
	for i := 0; i < reps; i++ {
		if mm != nil {
			mm.Close()
		}
		runtime.GC()
		b, err := timeIt(func() (err error) { a, mm, err = e.pipeline(gf, rec); return err })
		if err != nil {
			return Result{}, err
		}
		builds = append(builds, b)
	}
	defer mm.Close()
	fmt.Printf("build pipeline repetitions: %.3v s\n", builds)
	rss := selfUsage().peakMB
	t := &target{shards: []*artifacts{a}, mmap: true, chk: singleChecker(a), nodes: gf.orig}
	if e.traced {
		return e.traced1(t, rec, gf)
	}
	dep, err := e.start(t, false, nil)
	if err != nil {
		return Result{}, err
	}
	defer dep.stop()
	e.checkArtifacts(a, mm, dep)
	reqs := e.requests(t.nodes, e.seconds*e.ws.QueryShare, e.seed)
	outs, cpu := e.drive(dep, httpSender(newClient(e.spec.MaxInflight), dep.base, nil), reqs, e.ws.NominalRPS)
	checkAll(outs, reqs, t.chk, e.fails)
	res := Result{Metrics: []Metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), Samples: len(setups)},
		{Name: "build_s", Unit: "s", Value: median(builds), Samples: len(builds)},
		{Name: "artifact_mb", Unit: "MB", Value: float64(a.bytes()) / 1e6, Samples: 1},
		{Name: "rss_mb", Unit: "MB", Value: rss, Samples: 1},
	}}
	res.Metrics = append(res.Metrics, e.serveMetrics(outs, cpu)...)
	e.printSummary(outs)
	return res, nil
}

func (e *env) printSummary(outs []Outcome) {
	st := loadStats(outs)
	fmt.Printf("workload %s seed %d: %d requests at %.0f/s, %d answered (%d partial), lag p99 %.3f ms\n",
		e.name, e.seed, st.Sent, e.ws.NominalRPS, st.Completed, st.Partial, tail("", "", st.Lag).Value)
}

// ---- traced run -----------------------------------------------------------

// runServeTraced builds the serve fixture once with layer spans, then
// hands over to traced1.
func (e *env) runServeTraced() (Result, error) {
	rec := newRecorder()
	gf, err := genGraph(e.dir, e.ws)
	if err != nil {
		return Result{}, err
	}
	t, err := e.buildTarget(gf, rec)
	if err != nil {
		return Result{}, err
	}
	return e.traced1(t, rec, gf)
}

// layerSet collects per-layer metrics by name.
type layerSet map[string]Metric

func (l layerSet) set(name, unit string, v float64, n int) {
	l[name] = Metric{Name: name, Unit: unit, Value: v, Samples: n}
}

// traced1 is the per-layer run. On the fixture already built (with build
// spans in rec) it replays the untraced run's requests twice through the
// serving code hosted in-process, first untraced (for the runtime counters
// and the overhead baseline), then with spans around server.Handler,
// router.Handler and every router leg; then replays each computed answer
// through the library calls it is made of, and climbs the rate ladder.
func (e *env) traced1(t *target, rec *Recorder, gf *graphFix) (Result, error) {
	l := layerSet{}
	e.buildLayers(t, rec, gf, l)

	// Both passes replay the first part of the untraced run's requests.
	seconds := e.seconds * e.spec.TracePassShare
	if e.name == "build" {
		seconds *= e.ws.QueryShare
	}
	reqs := e.requests(t.nodes, seconds, e.seed)

	// Pass A: untraced.
	depA, err := e.start(t, true, nil)
	if err != nil {
		return Result{}, err
	}
	var ms0, ms1 runtime.MemStats
	cpu0 := readCPU()
	runtime.ReadMemStats(&ms0)
	outsA, _ := e.drive(depA, httpSender(newClient(e.spec.MaxInflight), depA.base, nil), reqs, e.ws.NominalRPS)
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()
	e.serverLayers(depA, outsA, l)
	depA.stop()
	checkAll(outsA, reqs, t.chk, e.fails)
	stA := loadStats(outsA)
	l.set("runtime.allocs_per_req", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(max(1, stA.Completed)), stA.Completed)
	l.set("runtime.gc_cpu_share", "ratio", cpu1.gcShare(cpu0), stA.Completed)
	e.answerLayers(t, reqs, outsA, l)
	tailA := tail("latency_p99_ms", "ms", loadStats(outsA[int(e.ws.WarmupShare*float64(len(outsA))):]).Latency)
	l[tailA.Name] = tailA

	// Pass B: traced.
	depB, err := e.start(t, true, rec)
	if err != nil {
		return Result{}, err
	}
	spans := make([]*Open, len(reqs)) // each sender touches only its own entries
	headers := func(i int, h http.Header) {
		id := "r" + strconv.Itoa(i)
		spans[i] = rec.Start("loadgen.request", id, 0)
		h.Set(hdrReq, id)
		h.Set(hdrParent, strconv.FormatInt(spans[i].ID(), 10))
	}
	fetch := httpSender(newClient(e.spec.MaxInflight), depB.base, headers)
	send := func(ctx context.Context, i int, r Request) (int, []byte, error) {
		status, body, err := fetch(ctx, i, r)
		spans[i].End()
		return status, body, err
	}
	outsB, _ := e.drive(depB, send, reqs, e.ws.NominalRPS)
	depB.stop()
	checkAll(outsB, reqs, t.chk, e.fails)
	e.replay(t, reqs, outsB, rec)
	stB := loadStats(outsB)
	l.set("trace.overhead_share", "ratio", median(stB.Latency)/median(stA.Latency)-1, stB.Completed)
	e.spanLayers(rec, l)

	e.loadgenLayers(outsA, l)
	rate, err := e.ladder(t)
	if err != nil {
		return Result{}, err
	}
	l.set("max_rate_rps", "1/s", rate, len(e.ws.LadderRPS))
	spansPath := filepath.Join(e.dir, "..", fmt.Sprintf("spans-%s-%d.jsonl", e.name, e.seed))
	if err := rec.WriteFile(spansPath); err != nil {
		return Result{}, err
	}
	fmt.Printf("spans written to %s\n", filepath.Clean(spansPath))
	e.printSummary(outsB)
	return Result{Metrics: l.ordered()}, nil
}

// ordered returns every per-layer metric in the fixed reporting order;
// one a workload does not exercise reads 0 with 0 samples.
func (l layerSet) ordered() []Metric {
	out := make([]Metric, 0, len(perLayer))
	for _, m := range perLayer {
		if got, ok := l[m.name]; ok {
			out = append(out, got)
		} else {
			out = append(out, Metric{Name: m.name, Unit: m.unit})
		}
	}
	return out
}

// cpuSample reads the runtime's CPU accounting.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

func (c cpuSample) gcShare(before cpuSample) float64 {
	if d := c.total - before.total; d > 0 {
		return (c.gc - before.gc) / d
	}
	return 0
}

// buildLayers turns the fixture's build spans into per-layer metrics and
// times world sampling and SCC condensation on the same generators.
func (e *env) buildLayers(t *target, rec *Recorder, gf *graphFix, l layerSet) {
	sum := map[string]float64{}
	cnt := map[string]int{}
	for _, s := range rec.Spans() {
		sum[s.Name] += float64(s.dur()) / 1e9
		cnt[s.Name]++
	}
	put := func(metric, span, unit string, scale float64) {
		if cnt[span] > 0 {
			l.set(metric, unit, sum[span]*scale, cnt[span])
		}
	}
	put("index.build_s", "index.build", "s", 1)
	put("index.save_s", "index.save", "s", 1)
	put("index.open_ms", "index.open", "ms", 1e3)
	put("core.compute_all_s", "core.compute_all", "s", 1)
	put("core.store_save_s", "core.store_save", "s", 1)
	put("sketch.build_s", "sketch.build", "s", 1)
	put("shard.partition_s", "shard.partition", "s", 1)
	if cnt["core.compute_all"] > 0 {
		n := 0
		for _, a := range t.shards {
			n += a.gf.g.NumNodes()
		}
		l.set("core.nodes_per_s", "1/s", float64(n)/sum["core.compute_all"], n)
	}
	var idxBytes, skBytes int64
	for _, a := range t.shards {
		idxBytes += fileBytes(a.idxPath)
		skBytes += fileBytes(a.skPath)
	}
	l.set("index.bytes", "bytes", float64(idxBytes), len(t.shards))
	if skBytes > 0 {
		l.set("sketch.bytes", "bytes", float64(skBytes), len(t.shards))
	}
	if f := t.sharded; f != nil {
		maxN := 0
		for _, a := range f.shards {
			maxN = max(maxN, a.gf.g.NumNodes())
		}
		l.set("shard.cut_bound", "nodes", f.topo.CutBound, f.topo.CutEdges)
		l.set("shard.nodes_max_share", "ratio", float64(maxN)/float64(f.topo.NumNodes), len(f.shards))
	}
	sampleS, condenseS := worldsAndSCC(gf.g, e.ws.Worlds, e.seed)
	l.set("worlds.sample_s", "s", sampleS, e.ws.Worlds)
	l.set("scc.condense_s", "s", condenseS, e.ws.Worlds)
	if e.name == "build" {
		a := t.shards[0]
		var tc, sks infmax.Selection
		tcS, _ := timeIt(func() (err error) {
			tc, err = infmax.TC(e.ctx, a.x.Graph(), tcSpheres(a.spheres), 10, infmax.TCOptions{})
			return err
		})
		skS, _ := timeIt(func() (err error) { sks, err = infmax.SelectSeedsSketch(a.sk, 10); return err })
		l.set("infmax.tc_ms", "ms", tcS*1e3, 1)
		l.set("infmax.sketch_seeds_ms", "ms", skS*1e3, 1)
		l.set("infmax.lazy_evals", "count", float64(tc.LazyEvaluations+sks.LazyEvaluations), 2)
	}
}

// worldsAndSCC samples ℓ worlds of g and runs scc.Tarjan, Condense and
// Reduce on each, timing the sampling and the condensation apart.
func worldsAndSCC(g *graph.Graph, n int, seed uint64) (sampleS, condenseS float64) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		w := worlds.Sample(g, r)
		t1 := time.Now()
		d := scc.Tarjan(w)
		scc.Reduce(scc.Condense(w, d), 0)
		sampleS += t1.Sub(t0).Seconds()
		condenseS += time.Since(t1).Seconds()
	}
	return sampleS, condenseS
}

// serverLayers reads the in-process servers' and router's counters.
func (e *env) serverLayers(dep *deployment, outs []Outcome, l layerSet) {
	var hits, misses, rejected, shared, bytes int64
	for _, s := range dep.servers {
		hits += s.tel.Counter("server.cache.hits").Value()
		misses += s.tel.Counter("server.cache.misses").Value()
		rejected += s.tel.Counter("server.rejected_overload").Value()
		shared += s.tel.Counter("server.singleflight.shared").Value()
		bytes += s.respBytes.Load()
	}
	n := len(outs)
	if hits+misses > 0 {
		l.set("server.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	l.set("server.rejected", "count", float64(rejected), n)
	l.set("server.singleflight_shared", "count", float64(shared), n)
	l.set("server.resp_bytes_per_req", "bytes", float64(bytes)/float64(max(1, n)), n)
	if gw := dep.gw; gw != nil {
		l.set("router.retries", "count", float64(gw.tel.Counter("router.retries").Value()), n)
		l.set("router.hedges", "count", float64(gw.tel.Counter("router.hedges").Value()), n)
	}
}

// answerLayers derives the accuracy figures from the answers: partial
// share, served bound relative to the answer, and for build (where each
// seed set is asked of the sketch and of the dense index back to back)
// the sketch's bound, its observed error and the share of dense answers
// outside the served bound.
func (e *env) answerLayers(t *target, reqs []Request, outs []Outcome, l layerSet) {
	st := loadStats(outs)
	l.set("failed_share", "ratio", float64(e.fails.total())/float64(max(1, e.attempted)), e.attempted)
	l.set("partial_share", "ratio", float64(st.Partial)/float64(max(1, st.Sent)), st.Sent)
	var rel, skRel, skErr []float64
	misses := 0
	for i := range outs {
		var a answer
		if !statusOK(&outs[i]) || json.Unmarshal(outs[i].Body, &a) != nil {
			continue
		}
		v := a.Spread
		if strings.HasPrefix(reqs[i].Kind, "seeds") {
			v = a.Objective
		}
		if a.ErrorBound > 0 && v > 0 {
			rel = append(rel, a.ErrorBound/v)
		}
		if e.name != "build" || reqs[i].Kind != "spread-sketch" || i+1 >= len(outs) || reqs[i+1].Kind != "spread-index" {
			continue
		}
		var d answer
		if !statusOK(&outs[i+1]) || json.Unmarshal(outs[i+1].Body, &d) != nil || d.Spread <= 0 {
			continue
		}
		skRel = append(skRel, a.ErrorBound/a.Spread)
		skErr = append(skErr, math.Abs(a.Spread-d.Spread)/d.Spread)
		if math.Abs(a.Spread-d.Spread) > a.ErrorBound {
			misses++
		}
	}
	if len(rel) > 0 {
		l.set("served_bound_rel", "ratio", median(rel), len(rel))
	}
	if len(skRel) > 0 {
		l.set("sketch_bound_rel", "ratio", median(skRel), len(skRel))
		l.set("sketch_miss_share", "ratio", float64(misses)/float64(len(skRel)), len(skRel))
		l.set("sketch.err_rel_p50", "ratio", median(skErr), len(skErr))
	}
}

// loadgenLayers reports the generator's own figures for the untraced pass.
func (e *env) loadgenLayers(outs []Outcome, l layerSet) {
	st := loadStats(outs)
	l.set("loadgen.lag_p99_ms", "ms", tail("", "", st.Lag).Value, len(st.Lag))
	l.set("loadgen.sent", "count", float64(st.Sent), st.Sent)
	l.set("loadgen.completed", "count", float64(st.Completed), st.Sent)
}

// replay re-runs, after the traced pass, the library calls behind every
// answer that some server computed rather than served from its cache, on
// the same inputs, each as a replay span. With one soid the spans hang
// under that request's server.handler span; behind the gateway (where
// the compute of a request is split over shards) they are roots.
func (e *env) replay(t *target, reqs []Request, outs []Outcome, rec *Recorder) {
	handler := map[string]int64{}
	missed := map[string]bool{} // some shard computed the answer
	for _, s := range rec.Spans() {
		if s.Name == "server.handler" {
			handler[s.Req] = s.ID
			missed[s.Req] = missed[s.Req] || !s.Hit
		}
	}
	if len(t.shards) > 1 {
		clear(handler)
	}
	scratch := make([]*index.Scratch, len(t.shards))
	for i, a := range t.shards {
		scratch[i] = a.x.NewScratch()
	}
	owner := func(id int64) int {
		if t.sharded != nil {
			return t.sharded.owner[id]
		}
		return 0
	}
	bySh := func(ids []int64) map[int][]graph.NodeID {
		m := map[int][]graph.NodeID{}
		for _, id := range ids {
			s := owner(id)
			m[s] = append(m[s], t.shards[s].gf.dense[id])
		}
		return m
	}
	for i, r := range reqs {
		o := &outs[i]
		id := "r" + strconv.Itoa(i)
		if !statusOK(o) || !missed[id] {
			continue
		}
		parent := handler[id]
		switch r.Kind {
		case "sphere-compute", "stability":
			a := t.shards[0]
			seeds := a.gf.denseOf(r.Seeds)
			sp := rec.Start("index.cascades", id, parent)
			sets := a.x.CascadesFromSet(seeds, scratch[0])
			sp.EndReplay()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sp = rec.Start("jaccard.prefix", id, parent)
			med := jaccard.Prefix(sets)
			sp.EndReplay()
			runtime.ReadMemStats(&m1)
			nodes := 0
			for _, c := range sets {
				nodes += len(c)
			}
			rec.count("index.cascade_nodes_per_req", float64(nodes))
			rec.count("jaccard.allocs_per_req", float64(m1.Mallocs-m0.Mallocs))
			h := checkpoint.NewHasher().Uint64(1)
			h.Nodes(seeds)
			sp = rec.Start("worlds.cost", id, parent)
			stab, _, err := core.EstimateCostBudget(e.ctx, a.gf.g, seeds, med.Set, serverCostSamples, h.Sum(), index.IC, checkpoint.Budget{})
			sp.EndReplay()
			var got answer
			if json.Unmarshal(o.Body, &got) == nil && (err != nil || got.Stability == nil || !sameFloat(*got.Stability, stab)) {
				e.fails.add(r.Kind + ": wrong answer: stability differs from core.EstimateCostBudget")
			}
		case "spread-index", "spread-sketch":
			name := "index.spread"
			if r.Kind == "spread-sketch" {
				name = "sketch.estimate"
			}
			sp := rec.Start(name, id, parent)
			for s, seeds := range bySh(r.Seeds) {
				if r.Kind == "spread-index" {
					cascade.SpreadFromIndex(t.shards[s].x, seeds, scratch[s])
				} else {
					t.shards[s].sk.EstimateSpread(seeds)
				}
			}
			sp.EndReplay()
		case "seeds-tc", "seeds-sketch":
			name := "infmax.tc"
			if r.Kind == "seeds-sketch" {
				name = "infmax.sketch_seeds"
			}
			sp := rec.Start(name, id, parent)
			lazy := 0
			for _, a := range t.shards {
				var sel infmax.Selection
				if r.Kind == "seeds-tc" {
					sel, _ = infmax.TC(e.ctx, a.x.Graph(), tcSpheres(a.spheres), r.K, infmax.TCOptions{})
				} else {
					sel, _ = infmax.SelectSeedsSketch(a.sk, r.K)
				}
				lazy += sel.LazyEvaluations
			}
			sp.EndReplay()
			rec.count("infmax.lazy_evals", float64(lazy))
		}
	}
}

// spanLayers turns the traced pass's spans into per-layer figures.
func (e *env) spanLayers(rec *Recorder, l layerSet) {
	spans, counts := rec.Spans(), rec.Counts()
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	var clientNS, computeNS, servingNS float64
	for _, s := range spans {
		d := float64(s.dur()) / 1e6
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e6)
		switch {
		case s.Name == "loadgen.request":
			clientNS += float64(s.dur())
		case s.Replay:
			computeNS += float64(self[s.ID])
		case s.Name == "server.handler", s.Name == "router.handler", s.Name == "router.leg":
			servingNS += float64(self[s.ID])
		}
	}
	pct := func(metric, span string, unit string, xs map[string][]float64, scale float64) {
		if v := xs[span]; len(v) > 0 {
			l.set(metric, unit, median(v)*scale, len(v))
		}
	}
	pct("server.self_ms_p50", "server.handler", "ms", selfs, 1)
	pct("router.self_ms_p50", "router.handler", "ms", selfs, 1)
	pct("index.cascades_ms_p50", "index.cascades", "ms", durs, 1)
	pct("jaccard.prefix_ms_p50", "jaccard.prefix", "ms", durs, 1)
	pct("worlds.cost_ms_p50", "worlds.cost", "ms", durs, 1)
	pct("sketch.estimate_us_p50", "sketch.estimate", "us", durs, 1e3)
	if e.name != "build" {
		pct("infmax.tc_ms", "infmax.tc", "ms", durs, 1)
		pct("infmax.sketch_seeds_ms", "infmax.sketch_seeds", "ms", durs, 1)
	}
	if legs := durs["router.leg"]; len(legs) > 0 {
		l.set("router.legs_per_req", "count", float64(len(legs))/float64(len(durs["router.handler"])), len(durs["router.handler"]))
		m := tail("router.leg_ms_p99", "ms", legs)
		l[m.Name] = m
	}
	for name, c := range counts {
		l.set(name, "count", c.sum/float64(c.n), c.n)
	}
	if clientNS > 0 {
		n := len(durs["loadgen.request"])
		l.set("trace.compute_self_share", "ratio", computeNS/clientNS, n)
		l.set("trace.serving_self_share", "ratio", servingNS/clientNS, n)
	}
}
