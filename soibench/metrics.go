package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// Metric is one reported figure: a name from BENCHMARK.json, its unit, the
// value and how many samples it summarizes. Quantile is the percentile a
// latency figure actually reports (see tailQuantile); 0 for non-percentiles.
type Metric struct {
	Name     string
	Unit     string
	Value    float64
	Samples  int
	Quantile float64
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validate checks the naming rules every metric follows.
func (m Metric) validate() error {
	if !metricName.MatchString(m.Name) {
		return fmt.Errorf("metric name %q: want letters, digits, '_', '.', '-'", m.Name)
	}
	if m.Unit == "" {
		return fmt.Errorf("metric %s has no unit", m.Name)
	}
	if m.Samples < 0 || (m.Samples == 0 && m.Value != 0) {
		return fmt.Errorf("metric %s has a value but no samples", m.Name)
	}
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return fmt.Errorf("metric %s is not finite", m.Name)
	}
	return nil
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailQuantile returns the percentile reported as a "p99" from n samples:
// 0.99 when at least minBeyond samples lie beyond it, otherwise the highest
// quantile that still has minBeyond beyond it (never below the median).
func tailQuantile(n int) float64 {
	if n >= 100*minBeyond {
		return 0.99
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q < 0.5 || n == 0 {
		return 0.5
	}
	return q
}

// quantile returns the q-quantile of xs by nearest rank (xs need not be
// sorted; it is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// p50 and tail build the two percentile metrics of a latency sample.
func p50(name, unit string, xs []float64) Metric {
	return Metric{Name: name, Unit: unit, Value: median(xs), Samples: len(xs), Quantile: 0.5}
}

func tail(name, unit string, xs []float64) Metric {
	q := tailQuantile(len(xs))
	return Metric{Name: name, Unit: unit, Value: quantile(xs, q), Samples: len(xs), Quantile: q}
}

// Result is what one benchmark run prints as its last line.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
}

// writeReport prints one human-readable line per metric, then the JSON
// result object as the last line of standard output.
func writeReport(w io.Writer, r Result) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jsonMetric{}}
	for _, m := range r.Metrics {
		if err := m.validate(); err != nil {
			return err
		}
		if _, dup := out.Metrics[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		q := ""
		if m.Quantile > 0 {
			q = fmt.Sprintf("p%g of ", math.Round(m.Quantile*1000)/10)
		}
		fmt.Fprintf(w, "metric %-28s %14.6g %-6s (%s%d samples)\n", m.Name, m.Value, m.Unit, q, m.Samples)
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in
// reporting order; metrics_test.go keeps the two in step.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"artifact_mb", "MB"},
	{"rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
}

var perLayer = []struct{ name, unit string }{
	{"latency_p99_ms", "ms"},
	{"max_rate_rps", "1/s"},
	{"failed_share", "ratio"},
	{"partial_share", "ratio"},
	{"served_bound_rel", "ratio"},
	{"sketch_bound_rel", "ratio"},
	{"sketch_miss_share", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.completed", "count"},
	{"server.self_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"server.singleflight_shared", "count"},
	{"server.resp_bytes_per_req", "bytes"},
	{"router.self_ms_p50", "ms"},
	{"router.legs_per_req", "count"},
	{"router.leg_ms_p99", "ms"},
	{"router.retries", "count"},
	{"router.hedges", "count"},
	{"index.cascades_ms_p50", "ms"},
	{"index.cascade_nodes_per_req", "count"},
	{"index.build_s", "s"},
	{"index.save_s", "s"},
	{"index.open_ms", "ms"},
	{"index.bytes", "bytes"},
	{"jaccard.prefix_ms_p50", "ms"},
	{"jaccard.allocs_per_req", "count"},
	{"worlds.sample_s", "s"},
	{"scc.condense_s", "s"},
	{"worlds.cost_ms_p50", "ms"},
	{"core.compute_all_s", "s"},
	{"core.nodes_per_s", "1/s"},
	{"core.store_save_s", "s"},
	{"infmax.tc_ms", "ms"},
	{"infmax.sketch_seeds_ms", "ms"},
	{"infmax.lazy_evals", "count"},
	{"sketch.build_s", "s"},
	{"sketch.bytes", "bytes"},
	{"sketch.estimate_us_p50", "us"},
	{"sketch.err_rel_p50", "ratio"},
	{"shard.partition_s", "s"},
	{"shard.cut_bound", "nodes"},
	{"shard.nodes_max_share", "ratio"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.compute_self_share", "ratio"},
	{"trace.serving_self_share", "ratio"},
}
