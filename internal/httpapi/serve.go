package httpapi

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"soi/internal/fault"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// Mount adds the surface both daemons serve beside /v1: liveness
// (/healthz), Prometheus /metrics (empty with a nil registry), retained
// traces (/debug/traces, 404 "tracing disabled" with a nil tracer), expvar
// and pprof, and — only behind the SOI_FAILPOINTS_HTTP env gate, so a
// production daemon never exposes it by accident — remote fault injection.
func Mount(mux *http.ServeMux, tel *telemetry.Registry, tracer *trace.Tracer) {
	mux.HandleFunc("GET /healthz", healthz)
	mux.Handle("GET /metrics", tel.Handler())
	traces := tracer.Handler("/debug/traces")
	mux.Handle("GET /debug/traces", traces)
	mux.Handle("GET /debug/traces/", traces)
	telemetry.MountDebug(mux)
	if fault.HTTPEnabled() {
		mux.Handle("/debug/failpoints", fault.Handler())
	}
}

// healthz is liveness: the process is up and able to answer. It stays 200
// while loading and while draining — a draining daemon is alive, and
// restarting it would abort the drain. Readiness is /readyz.
func healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Frame is the part of a /v1 request both daemons wrap the same way: the
// root-or-continued request span with its X-SOI-Request-ID echo, the 503
// draining refusal, and — when the request ends — its status and error code
// on the span and one request-log line. What runs in between (the server's
// cache, singleflight and admission; the router's scatter and merge) stays
// with each daemon.
type Frame struct {
	// Service names the daemon in request-log records ("soid", "soigw").
	Service string
	// DrainMessage is the message of the 503 draining refusal.
	DrainMessage string
	// Tracer records the request spans; nil disables tracing.
	Tracer *trace.Tracer
	// Log receives one record per request; nil disables request logging.
	Log *trace.RequestLog

	draining atomic.Bool
}

// Drain makes every later request answer 503 draining; requests already
// past Begin run to completion.
func (f *Frame) Drain() { f.draining.Store(true) }

// Draining reports whether Drain has been called.
func (f *Frame) Draining() bool { return f.draining.Load() }

// Call is one request inside a Frame. The endpoint sets Status and Code as
// it answers (Fail sets both) and fills Record's endpoint-specific fields —
// cache state, achieved accuracy, shard fan-out; End supplies the rest.
type Call struct {
	// Req is the request, its context carrying Span when tracing is on.
	Req   *http.Request
	Span  *trace.Span
	Start time.Time
	// Status and Code are the answer's HTTP status and, for errors, its
	// error code.
	Status int
	Code   string
	Record trace.RequestRecord

	f *Frame
}

// Begin opens a request on the endpoint: it starts spanName as a root span,
// or continues the caller's trace when the request carries a traceparent,
// and echoes the trace id as X-SOI-Request-ID. Once Drain has been called it
// refuses the request with a retryable 503 draining and ok is false. Either
// way the caller defers End.
func (f *Frame) Begin(w http.ResponseWriter, req *http.Request, endpoint, spanName string) (c Call, ok bool) {
	c = Call{Req: req, Start: time.Now(), Status: http.StatusOK, f: f}
	c.Record.Endpoint = endpoint
	rctx, span := f.Tracer.StartRequest(req, spanName,
		trace.String("endpoint", endpoint), trace.String("path", req.URL.Path))
	if span != nil {
		c.Req, c.Span = req.WithContext(rctx), span
		w.Header().Set(trace.RequestIDHeader, span.RequestID())
	}
	if f.draining.Load() {
		c.Fail(w, &Error{Status: http.StatusServiceUnavailable, Code: CodeDraining,
			Msg: f.DrainMessage, RetryAfter: time.Second})
		return c, false
	}
	return c, true
}

// Fail answers the request with e's error envelope and records its status
// and code.
func (c *Call) Fail(w http.ResponseWriter, e *Error) {
	c.Status, c.Code = e.Status, e.Code
	WriteError(w, e.Status, e.Code, e.Msg, e.RetryAfter)
}

// End closes the request: the status and error code go onto the span, the
// span ends (which decides the trace's retention), and the request-log line
// is written. It returns the request's duration.
func (c *Call) End() time.Duration {
	dur := time.Since(c.Start)
	c.Span.SetHTTPStatus(c.Status)
	if c.Code != "" {
		c.Span.SetError(c.Code)
	}
	c.Span.End()
	if c.f.Log != nil {
		rec := c.Record
		rec.Service = c.f.Service
		rec.TraceID = c.Span.RequestID()
		rec.Path = c.Req.URL.RequestURI()
		rec.Status = c.Status
		rec.DurationMS = float64(dur) / float64(time.Millisecond)
		rec.ErrorCode = c.Code
		c.f.Log.Log(rec)
	}
	return dur
}

// Gate is a daemon's one listener. It binds the listen address at once —
// before the daemon has loaded anything — and answers liveness (200) and
// readiness (503 "loading") until Ready swaps in the real handler. Routers
// probing /readyz therefore see a restarting shard as alive-but-not-ready
// instead of connection-refused, and scripts waiting on an address file can
// start polling during the load.
type Gate struct {
	handler atomic.Value // http.Handler
	srv     *http.Server
	done    chan struct{}
}

// NewGate returns a Gate serving the loading stub.
func NewGate() *Gate {
	g := &Gate{done: make(chan struct{})}
	stub := http.NewServeMux()
	stub.HandleFunc("GET /healthz", healthz)
	stub.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		WriteReady(w, ReadyResponse{Ready: false, Reason: "loading"})
	})
	stub.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusServiceUnavailable, CodeLoading,
			"daemon is still loading its artifacts", time.Second)
	})
	g.handler.Store(http.Handler(stub))
	return g
}

// Ready swaps the loading stub for the real handler. Safe to call while
// requests are in flight; subsequent requests see h.
func (g *Gate) Ready(h http.Handler) { g.handler.Store(h) }

// ServeHTTP dispatches to the current handler.
func (g *Gate) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	g.handler.Load().(http.Handler).ServeHTTP(w, req)
}

// Start binds addr (":0" for ephemeral) and serves until Shutdown, returning
// the resolved listen address.
func (g *Gate) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	g.srv = &http.Server{Handler: g, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(g.done)
		_ = g.srv.Serve(ln) // ErrServerClosed on Shutdown is the normal path
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops accepting connections and waits (bounded by ctx) for
// in-flight requests. Drain the handler's Frame first, so requests that
// still arrive are refused while the admitted ones finish.
func (g *Gate) Shutdown(ctx context.Context) error {
	if g.srv == nil {
		return nil
	}
	err := g.srv.Shutdown(ctx)
	<-g.done
	return err
}
