package cliutil

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/httpapi"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// RunTelemetry is a command's telemetry lifecycle: an optional metrics
// registry (nil when neither -debug-addr nor -stats-json was given — all
// instrumentation downstream then no-ops), a root trace span that the
// library phases (index.build, core.compute_all, ...) open their spans
// under, an optional debug HTTP server, and an exactly-once final report
// flush that runs on every exit path, including Fail's os.Exit shortcuts.
type RunTelemetry struct {
	// Tool is the command name, used in stderr notices.
	Tool string
	// Registry is the metrics registry handed to the compute layers; nil
	// when telemetry is disabled.
	Registry *telemetry.Registry

	statsPath string
	root      *trace.Span
	server    *telemetry.DebugServer
	flushOnce sync.Once
}

// StartTelemetry builds the telemetry lifecycle from the -debug-addr and
// -stats-json flags. With both empty it returns a disabled lifecycle whose
// Registry is nil, so the per-event overhead everywhere downstream is a
// single nil check. The debug server (Prometheus /metrics, expvar, pprof)
// starts immediately; its resolved address is announced on stderr.
func StartTelemetry(tool, debugAddr, statsPath string) (*RunTelemetry, error) {
	t := &RunTelemetry{Tool: tool, statsPath: statsPath}
	if debugAddr == "" && statsPath == "" {
		return t, nil
	}
	t.Registry = telemetry.New()
	t.Registry.SetTool(tool)
	// The run is one trace whose root the phases nest under; Flush reports
	// its subtree.
	_, t.root = trace.StartRun(context.Background(), tool)
	telemetry.PublishExpvar("soi", t.Registry)
	if debugAddr != "" {
		srv, err := telemetry.Serve(debugAddr, t.Registry)
		if err != nil {
			return nil, fmt.Errorf("%s: debug server: %w", tool, err)
		}
		t.server = srv
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", tool, srv.Addr)
	}
	return t, nil
}

// Context returns ctx carrying the run's root span, so every library phase
// started under it lands in the report's span tree. ctx is returned
// unchanged when telemetry is disabled.
func (t *RunTelemetry) Context(ctx context.Context) context.Context {
	if t.root == nil {
		return ctx
	}
	return trace.ContextWithSpan(ctx, t.root)
}

// Flush writes the final report exactly once: it ends the root span, fills
// the report's spans from the phases run under it (a phase cut short by a
// failure renders as running), writes the JSON report to the -stats-json
// path (atomically) and the human-readable table to stderr, and shuts down
// the debug server. Safe to call multiple times and on a
// disabled (Registry == nil) lifecycle. Flush failures are reported on
// stderr but never change the command's exit code — telemetry must not turn
// a successful run into a failed one.
func (t *RunTelemetry) Flush() {
	t.flushOnce.Do(func() {
		if t.Registry == nil {
			return
		}
		t.root.End()
		rep := t.Registry.Report()
		rep.Spans = t.root.Phases()
		httpapi.WriteReport(t.Tool, t.statsPath, rep)
		rep.WriteTable(os.Stderr)
		if t.server != nil {
			if err := t.server.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: closing debug server: %v\n", t.Tool, err)
			}
		}
	})
}

// Finish flushes telemetry and then exits through Fail. Use it instead of
// Fail on every error path once telemetry has started, so interrupted
// (exit 130) and failed runs still leave a report behind.
func (t *RunTelemetry) Finish(err error) {
	t.Flush()
	Fail(t.Tool, err)
}

// ResumeConfig is the package-level ResumeConfig with the lifecycle's
// registry attached, so resumable compute paths driven by the returned
// config feed the same metrics as direct calls.
func (t *RunTelemetry) ResumeConfig(path string, deadline time.Duration) checkpoint.Config {
	cfg := ResumeConfig(t.Tool, path, deadline)
	cfg.Telemetry = t.Registry
	return cfg
}

// GraphHash records the loaded graph's content hash in the run report, so a
// report can be matched to its exact input. No-op when telemetry is
// disabled.
func (t *RunTelemetry) GraphHash(g *graph.Graph) {
	if t.Registry == nil || g == nil {
		return
	}
	t.Registry.SetGraphHash(checkpoint.NewHasher().Graph(g).Sum())
}
