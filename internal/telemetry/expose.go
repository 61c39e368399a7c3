package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// promName maps a dotted metric name to a Prometheus-safe identifier:
// "pool.tasks_done" → "soi_pool_tasks_done". Counters additionally get the
// conventional _total suffix from WritePrometheus.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("soi_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: metric families are
// sorted by name, histogram buckets are cumulative and ascending. A nil
// registry renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h.Snapshot()
	}
	r.mu.Unlock()

	for _, name := range sortedNames(counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name])
	}
	for _, name := range sortedNames(gauges) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, gauges[name])
	}
	for _, name := range sortedNames(hists) {
		pn := promName(name)
		h := hists[name]
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.Le, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
}

// Handler returns an http.Handler serving WritePrometheus output.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

var expvarMu sync.Mutex

// PublishExpvar publishes the registry's report under the given expvar
// name. expvar.Publish panics on duplicate names, so re-publishing (tests,
// repeated runs in one process) silently rebinds instead: the most recently
// published registry wins.
func PublishExpvar(name string, r *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if v := expvar.Get(name); v != nil {
		if f, ok := v.(*expvarFunc); ok {
			f.mu.Lock()
			f.reg = r
			f.mu.Unlock()
			return
		}
		return // name taken by something else; leave it alone
	}
	f := &expvarFunc{reg: r}
	expvar.Publish(name, f)
}

type expvarFunc struct {
	mu  sync.Mutex
	reg *Registry
}

func (f *expvarFunc) String() string {
	f.mu.Lock()
	reg := f.reg
	f.mu.Unlock()
	b, err := reg.Report().JSON()
	if err != nil {
		return "{}"
	}
	return strings.TrimSuffix(string(b), "\n")
}

// MountDebug mounts expvar (GET /debug/vars) and the full net/http/pprof
// suite (/debug/pprof/...) on mux.
func MountDebug(mux *http.ServeMux) {
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// DebugServer is a running debug HTTP endpoint; see Serve.
type DebugServer struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
	done chan struct{}
}

// Serve starts an HTTP server on addr (e.g. "localhost:6060" or ":0")
// exposing:
//
//	/metrics       Prometheus text exposition of this registry
//	/debug/vars    expvar JSON (includes the registry if published)
//	/debug/pprof/  the full net/http/pprof suite (profile, heap, trace, ...)
//
// The mux is private, so pprof is only reachable through this listener and
// never leaks onto http.DefaultServeMux consumers. Serve returns once the
// listener is bound; the caller owns Close.
func Serve(addr string, r *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	MountDebug(mux)
	ds := &DebugServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(ds.done)
		// ErrServerClosed is the normal Close path; anything else is lost
		// (this is a best-effort debug endpoint).
		_ = ds.srv.Serve(ln)
	}()
	return ds, nil
}

// Close shuts the debug server down and waits for its goroutine to exit.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	err := d.srv.Close()
	<-d.done
	return err
}
