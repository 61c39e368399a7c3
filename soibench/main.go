// Command soibench is the repository benchmark. It runs one workload from a
// seed, drives soid/soigw over loopback HTTP (or, with -trace 1, the same
// serving code hosted in-process with timed layer calls), checks every
// answer against the library, and prints one line per metric followed by a
// JSON result line. Run it through run.sh from the checkout root:
//
//	bash soibench/run.sh --workload serve-cold --seed 3 --seconds 15 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

//go:embed spec.json
var specJSON []byte

// Spec is spec.json: the fixed workload parameters, rates and limits.
type Spec struct {
	NProc          int                     `json:"nproc"`
	MaxInflight    int                     `json:"max_inflight"`
	SetupRepeats   int                     `json:"setup_repeats"`
	BuildRepeats   int                     `json:"build_repeats"`
	TracePassShare float64                 `json:"trace_pass_share"`
	Workloads      map[string]WorkloadSpec `json:"workloads"`
	Layers         []LayerSpec             `json:"layers"`
	Moved          map[string]string       `json:"moved_to_per_layer"`
}

// WorkloadSpec parameterizes one workload.
type WorkloadSpec struct {
	Why string `json:"why"`
	// SetupRepeats overrides the spec-wide count for a cheap set-up.
	SetupRepeats int        `json:"setup_repeats"`
	Dataset      string     `json:"dataset"`
	Scale        float64    `json:"scale"`
	Worlds       int        `json:"worlds"`
	SketchK      int        `json:"sketch_k"`
	Shards       int        `json:"shards"`
	QueryShare   float64    `json:"query_share"`
	NominalRPS   float64    `json:"nominal_rps"`
	LadderRPS    []float64  `json:"ladder_rps"`
	P99LimitMS   float64    `json:"p99_limit_ms"`
	WarmupShare  float64    `json:"warmup_share"`
	ZipfS        float64    `json:"zipf_s"`
	SeedsK       []int      `json:"seeds_k"`
	SetMin       int        `json:"set_min"`
	SetMax       int        `json:"set_max"`
	Mix          []MixEntry `json:"mix"`
}

// MixEntry is one request kind and its share of the traffic.
type MixEntry struct {
	Kind   string  `json:"kind"`
	Weight float64 `json:"weight"`
}

// LayerSpec records, for one layer, its per-layer metrics, the end-to-end
// metrics they should move on which workload, and where no change is
// predicted.
type LayerSpec struct {
	Layer     string   `json:"layer"`
	Metrics   []string `json:"metrics"`
	Moves     []string `json:"moves"`
	Unchanged []string `json:"unchanged_on"`
}

func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func main() {
	var (
		root     = flag.String("root", ".", "root of the soi checkout")
		bin      = flag.String("bin", "", "directory holding the soid and soigw binaries")
		workload = flag.String("workload", "", "workload name (see spec.json)")
		seed     = flag.Uint64("seed", 1, "seed for the generated graph and requests")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	res, err := run(*root, *bin, *workload, *seed, float64(*seconds), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soibench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "soibench:", err)
		os.Exit(1)
	}
}

func run(root, bin, workload string, seed uint64, seconds float64, traced bool) (Result, error) {
	spec, err := loadSpec()
	if err != nil {
		return Result{}, err
	}
	ws, ok := spec.Workloads[workload]
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q", workload)
	}
	procs := min(runtime.NumCPU(), spec.NProc)
	runtime.GOMAXPROCS(procs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)

	e := &env{
		ctx: ctx, spec: spec, ws: ws, name: workload, seed: seed, seconds: seconds,
		traced: traced, bin: bin, dir: dir, procs: procs, fails: failures{},
	}
	var res Result
	switch workload {
	case "build":
		res, err = e.runBuild()
	default:
		res, err = e.runServe()
	}
	if err != nil {
		return Result{}, err
	}
	if n := e.fails.total(); n > 0 {
		fmt.Printf("failures (%d of %d attempted):\n%s", n, e.attempted, e.fails)
	}
	res.Attempted, res.Failed, res.Correct = e.attempted, e.fails.total(), e.wrong() == 0
	return res, nil
}
