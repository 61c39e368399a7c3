package httpapi

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"soi/internal/atomicfile"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// TraceFlags is the serving daemons' shared tracing configuration (soid and
// soigw register identical flags, so operators learn one spelling).
type TraceFlags struct {
	Ring       int
	Sample     float64
	Slow       time.Duration
	RequestLog string
}

// Register installs the tracing flags on fs.
func (f *TraceFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Ring, "trace-ring", 512,
		"retained-trace ring size (/debug/traces); 0 disables tracing entirely")
	fs.Float64Var(&f.Sample, "trace-sample", 0.01,
		"probability an unremarkable trace is retained (errors/206s/slow are always kept); negative keeps only remarkable traces")
	fs.DurationVar(&f.Slow, "trace-slow", 500*time.Millisecond,
		"requests at least this slow are always retained")
	fs.StringVar(&f.RequestLog, "request-log", "",
		"append one JSON line per request to this file")
}

// Tracer builds the tracer, or nil when tracing is disabled (-trace-ring 0).
func (f *TraceFlags) Tracer(service string, tel *telemetry.Registry) *trace.Tracer {
	if f.Ring <= 0 {
		return nil
	}
	return trace.New(trace.Options{
		Service:       service,
		RingSize:      f.Ring,
		SampleRate:    f.Sample,
		SlowThreshold: f.Slow,
		Telemetry:     tel,
	})
}

// OpenRequestLog opens the -request-log file, or returns nil (logging
// disabled) when the flag was not given.
func (f *TraceFlags) OpenRequestLog() (*trace.RequestLog, error) {
	if f.RequestLog == "" {
		return nil, nil
	}
	return trace.OpenRequestLog(f.RequestLog)
}

// WriteReport writes rep as the -stats-json file at path, atomically; an
// empty path writes nothing. A failure is reported on stderr and otherwise
// ignored: telemetry must not turn a successful run into a failed one.
func WriteReport(tool, path string, rep telemetry.Report) {
	if path == "" {
		return
	}
	err := atomicfile.WriteFile(path, func(w io.Writer) error {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing stats to %s: %v\n", tool, path, err)
	}
}

// WriteAddrFile writes a daemon's resolved listen address to path (the
// -addr-file flag), atomically, so a script polling the file never reads a
// partial address; an empty path writes nothing.
func WriteAddrFile(path, addr string) error {
	if path == "" {
		return nil
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := fmt.Fprintln(w, addr)
		return err
	})
}
