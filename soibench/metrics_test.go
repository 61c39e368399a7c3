package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestTailQuantileKeepsTenBeyond checks the reporting rule for tail
// percentiles: p99 only when at least ten samples lie beyond it,
// otherwise the highest percentile that still has ten.
func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 100, 333, 999, 1000, 1001, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		m := tail("latency_p99_ms", "ms", xs)
		if got := beyond(xs, m.Value); got < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want >= %d", n, 100*m.Quantile, got, minBeyond)
		}
		if (m.Quantile == 0.99) != (n >= 1000) {
			t.Errorf("n=%d: reported p%g, want p99 exactly when n >= 1000", n, 100*m.Quantile)
		}
		if m.Samples != n {
			t.Errorf("n=%d: sample count %d", n, m.Samples)
		}
	}
	if q := tailQuantile(5); q != 0.5 {
		t.Errorf("5 samples: quantile %g, want the median", q)
	}
}

// TestReportLines checks that every printed metric carries its unit and
// sample count, that the last line is the JSON result object, and
// that a malformed name or a unitless metric is refused.
func TestReportLines(t *testing.T) {
	var buf bytes.Buffer
	ms := []Metric{
		{Name: "setup_s", Unit: "s", Value: 1.5, Samples: 5},
		tail("latency_p99_ms", "ms", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}),
		{Name: "router.hedges", Unit: "count"}, // not exercised: 0 with 0 samples
	}
	if err := writeReport(&buf, Result{Correct: true, Attempted: 3, Metrics: ms}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(ms)+1 {
		t.Fatalf("%d lines, want %d", len(lines), len(ms)+1)
	}
	for i, m := range ms {
		if !strings.Contains(lines[i], m.Name) || !strings.Contains(lines[i], " "+m.Unit+" ") || !strings.Contains(lines[i], " samples)") {
			t.Errorf("line %q lacks name, unit or sample count", lines[i])
		}
	}
	if !strings.Contains(lines[1], "p50 of 20 samples") {
		t.Errorf("tail line %q does not say which percentile it reports", lines[1])
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line keys: %v", last)
	}
	for _, bad := range []Metric{
		{Name: "bad name", Unit: "s", Value: 1, Samples: 1},
		{Name: "_lead", Unit: "s", Value: 1, Samples: 1},
		{Name: "no_unit", Value: 1, Samples: 1},
		{Name: "no_samples", Unit: "s", Value: 1},
	} {
		if err := writeReport(&bytes.Buffer{}, Result{Metrics: []Metric{bad}}); err == nil {
			t.Errorf("metric %+v accepted", bad)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesReports checks BENCHMARK.json against what the
// benchmark reports: the same metric names and units in the same order,
// names and units of the allowed characters, bounds of at most a quarter
// with set-up time's the largest, and a spec.json entry (with its reason)
// for every workload.
func TestBenchmarkFileMatchesReports(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, reports have %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound, maxOther := 0.0, 0.0
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), report has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound <= maxOther {
		t.Errorf("setup_s bound %g is not the largest (another is %g)", setupBound, maxOther)
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), report has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]struct{ name, unit string }{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s (%s): name or unit has characters outside the allowed set", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if ws, ok := spec.Workloads[w.Name]; !ok || ws.Why == "" {
			t.Errorf("workload %s has no spec.json entry with a reason", w.Name)
		}
	}
}

// TestSpecMapsEveryLayerMetric checks that spec.json records, for every
// per-layer metric, the layer it belongs to (with the end-to-end metrics
// it should move) or why it moved from the end-to-end list.
func TestSpecMapsEveryLayerMetric(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, l := range spec.Layers {
		if len(l.Moves) == 0 {
			t.Errorf("layer %s names no end-to-end metric it should move", l.Layer)
		}
		for _, m := range l.Metrics {
			mapped[m] = true
		}
	}
	for m, why := range spec.Moved {
		if why == "" {
			t.Errorf("%s moved to per-layer without a reason", m)
		}
		mapped[m] = true
	}
	for _, m := range perLayer {
		if !mapped[m.name] {
			t.Errorf("per-layer metric %s is in no spec.json layer", m.name)
		}
	}
}

// TestSelfTimes checks self time: duration minus the union of the live
// children's intervals, minus replayed children's durations.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "router.handler", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "router.leg", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "router.leg", Start: 40, End: 70}, // overlaps leg 2
		{ID: 4, Parent: 2, Name: "server.handler", Start: 20, End: 45},
		{ID: 5, Parent: 4, Name: "index.cascades", Start: 500, End: 510, Replay: true},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 60, 2: 40 - 25, 3: 30, 4: 25 - 10, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %d, want %d", id, self[id], w)
		}
	}
}
