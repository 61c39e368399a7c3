package trace

import (
	"context"

	"soi/internal/telemetry"
)

// StartRun opens the root span of a batch run, named service, on a private
// tracer that samples nothing and retains at most the run's own trace. The
// returned ctx carries the root, so every phase started under it lands in
// the root's Phases.
func StartRun(ctx context.Context, service string) (context.Context, *Span) {
	return New(Options{Service: service, RingSize: 1, SampleRate: -1}).StartSpan(ctx, service)
}

// UnitsAttr is the attribute a phase span records its processed-unit count
// under (worlds, nodes, trials, RR sets, seeds); see EndUnits.
const UnitsAttr = "units"

// EndUnits records n as the span's UnitsAttr and ends it. Library phases
// (index.build, core.compute_all, cascade.expected_spread, the infmax
// greedies) count their work locally and report it once here, so a phase
// pays nothing per unit for its span. Nil-safe.
func (s *Span) EndUnits(n int64) {
	if s == nil {
		return
	}
	s.SetAttrs(Int(UnitsAttr, n))
	s.End()
}

// Phases renders the spans opened under the root span s (StartRun) as the
// run report's span tree (schema telemetry.ReportSchema): each child's name,
// duration, units and throughput, nested as started. Spans still open
// render as running. This is how a CLI's -stats-json report and the serving
// traces share one span system: the CLI threads the run's root through ctx
// and reports its subtree. Nil on a nil span.
func (s *Span) Phases() []telemetry.Phase {
	if s == nil {
		return nil
	}
	for _, j := range s.trace.Snapshot("").Spans {
		if j.SpanID == s.id.String() {
			return phaseSnapshots(j.Children)
		}
	}
	return nil
}

func phaseSnapshots(spans []SpanJSON) []telemetry.Phase {
	var out []telemetry.Phase
	for _, j := range spans {
		ps := telemetry.Phase{
			Name:     j.Name,
			Seconds:  j.DurationMS / 1e3,
			Running:  j.Running,
			Children: phaseSnapshots(j.Children),
		}
		ps.Units, _ = j.Attrs[UnitsAttr].(int64)
		if ps.Units > 0 && ps.Seconds > 0 {
			ps.UnitsPerS = float64(ps.Units) / ps.Seconds
		}
		out = append(out, ps)
	}
	return out
}
