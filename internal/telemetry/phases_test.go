package telemetry_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"soi/internal/telemetry"
	"soi/internal/trace"
)

// A registry holds no spans: a run's report takes its span tree from the
// trace its phases ran under (trace.Span.Phases), the path cliutil's
// RunTelemetry follows for every CLI's -stats-json report. These tests pin
// that path.

func TestSpanNesting(t *testing.T) {
	ctx, run := trace.StartRun(context.Background(), "run")
	pctx, _ := trace.StartChild(ctx, "phase.root") // deliberately left running
	_, child := trace.StartChild(pctx, "phase.child")
	time.Sleep(time.Millisecond)
	child.EndUnits(10)
	child.End()                     // idempotent
	trace.Child(pctx, "phase.open") // deliberately left running

	r := telemetry.New()
	rep := r.Report()
	rep.Spans = run.Phases()
	if len(rep.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(rep.Spans))
	}
	got := rep.Spans[0]
	if got.Name != "phase.root" || !got.Running {
		t.Fatalf("root span = %+v", got)
	}
	if len(got.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(got.Children))
	}
	c0 := got.Children[0]
	if c0.Name != "phase.child" || c0.Running || c0.Units != 10 || c0.Seconds <= 0 {
		t.Fatalf("child span = %+v", c0)
	}
	if c0.UnitsPerS <= 0 || c0.UnitsPerS != float64(c0.Units)/c0.Seconds {
		t.Fatalf("child units/s = %v", c0.UnitsPerS)
	}
	if got.Children[1].Name != "phase.open" || !got.Children[1].Running {
		t.Fatalf("open child = %+v", got.Children[1])
	}

	// The stderr table renders the same tree in its spans: section.
	var sb strings.Builder
	rep.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"spans:", "phase.root", "phase.child", "10 units", "phase.open", "[running]"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSpanEndStartSpanRace(t *testing.T) {
	ctx, run := trace.StartRun(context.Background(), "run")
	pctx, root := trace.StartChild(ctx, "root")
	var wg sync.WaitGroup
	// Concurrent End and StartChild on the same span must be race-free and
	// leave a consistent child list.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, c := trace.StartChild(pctx, "child")
				c.EndUnits(1)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				root.End()
			}
		}()
	}
	wg.Wait()
	snap := run.Phases()[0]
	if len(snap.Children) != 800 {
		t.Fatalf("children = %d, want 800", len(snap.Children))
	}
	if snap.Running {
		t.Fatal("ended span snapshots as running")
	}
	for _, c := range snap.Children {
		if c.Units != 1 || c.Running {
			t.Fatalf("child = %+v", c)
		}
	}
}

func TestSpanEndIdempotentDuration(t *testing.T) {
	ctx, run := trace.StartRun(context.Background(), "run")
	_, s := trace.StartChild(ctx, "phase")
	s.End()
	d1 := run.Phases()[0].Seconds
	time.Sleep(5 * time.Millisecond)
	s.End() // second End must not move the frozen duration
	if d2 := run.Phases()[0].Seconds; d2 != d1 {
		t.Fatalf("duration moved on second End: %v -> %v", d1, d2)
	}
	// Concurrent first Ends: exactly one winner, duration stays put.
	_, s2 := trace.StartChild(ctx, "phase2")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2.End()
		}()
	}
	wg.Wait()
	d := run.Phases()[1].Seconds
	time.Sleep(2 * time.Millisecond)
	s2.End()
	if run.Phases()[1].Seconds != d {
		t.Fatal("duration moved after concurrent Ends")
	}
}
