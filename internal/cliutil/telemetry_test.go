package cliutil

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"soi/internal/telemetry"
	"soi/internal/trace"
)

func TestStartTelemetryDisabled(t *testing.T) {
	rt, err := StartTelemetry("tool", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Registry != nil {
		t.Fatal("disabled lifecycle has a registry")
	}
	ctx := context.Background()
	if rt.Context(ctx) != ctx {
		t.Fatal("disabled lifecycle wrapped the context")
	}
	rt.Flush() // must be a safe no-op
	rt.GraphHash(nil)
	if cfg := rt.ResumeConfig("", 0); cfg.Telemetry != nil {
		t.Fatal("disabled lifecycle leaked a registry into the config")
	}
}

func TestFlushWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	rt, err := StartTelemetry("tool", "", path)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Registry == nil {
		t.Fatal("stats-json alone should enable telemetry")
	}
	rt.Registry.Counter("x.count").Add(7)
	// A phase opened under the run's context lands in the report's spans,
	// a top-level entry with its units.
	_, sp := trace.StartChild(rt.Context(context.Background()), "phase.one")
	sp.EndUnits(3)
	rt.Flush()
	rt.Flush() // idempotent

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("stats file is not valid JSON: %v", err)
	}
	if rep.Schema != telemetry.ReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.RunInfo.Tool != "tool" {
		t.Fatalf("tool = %q", rep.RunInfo.Tool)
	}
	if rep.Counters["x.count"] != 7 {
		t.Fatalf("counter = %d", rep.Counters["x.count"])
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "phase.one" || rep.Spans[0].Units != 3 || rep.Spans[0].Running {
		t.Fatalf("spans = %+v", rep.Spans)
	}
}

func TestResumeConfigCarriesRegistry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	rt, err := StartTelemetry("tool", "", path)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Flush()
	cfg := rt.ResumeConfig("run.ckpt", time.Minute)
	if cfg.Telemetry != rt.Registry {
		t.Fatal("config does not carry the run registry")
	}
	if cfg.Path != "run.ckpt" || cfg.Budget.Deadline.IsZero() {
		t.Fatalf("base config not assembled: %+v", cfg)
	}
}

func TestStartTelemetryDebugServer(t *testing.T) {
	rt, err := StartTelemetry("tool", "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Registry == nil {
		t.Fatal("debug-addr alone should enable telemetry")
	}
	rt.Flush() // closes the server
}
