package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/router"
	"soi/internal/server"
	"soi/internal/sketch"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// deployment is a running serving topology reached at base over loopback.
type deployment struct {
	base    string
	daemons []*daemon       // child processes (untraced runs)
	servers []*inprocServer // in-process soid equivalents (traced runs)
	gw      *inprocGateway  // in-process soigw equivalent (traced runs)
	closers []func()
}

func (d *deployment) stop() {
	if d == nil {
		return
	}
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	for _, dm := range d.daemons {
		dm.stop()
	}
}

// usage sums CPU and peak RSS over the serving child processes.
func (d *deployment) usage() procUsage {
	var u procUsage
	for _, dm := range d.daemons {
		x := dm.usage()
		u.cpu += x.cpu
		u.peakMB += x.peakMB
	}
	return u
}

// soidArgs are the flags a soid serving a over the loaded artifacts gets.
func soidArgs(a *artifacts, mmap bool) []string {
	args := []string{"-graph", a.gf.path, "-index", a.idxPath}
	if mmap {
		args = append(args, "-mmap")
	}
	if a.spherePath != "" {
		args = append(args, "-spheres", a.spherePath, "-sketch", a.skPath)
	}
	return args
}

// startProcesses runs one soid per artifact triple and, with a topology,
// a soigw in front of them.
func startProcesses(ctx context.Context, binDir, dir string, procs int, shards []*artifacts, mmap bool, topoPath string) (*deployment, error) {
	d := &deployment{}
	var urls []string
	for i, a := range shards {
		dm, err := startDaemon(ctx, binDir, dir, fmt.Sprintf("soid-%d", i), procs, soidArgs(a, mmap)...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.daemons = append(d.daemons, dm)
		urls = append(urls, "http://"+dm.addr)
	}
	if topoPath == "" {
		d.base = urls[0]
		return d, nil
	}
	gw, err := startDaemon(ctx, binDir, dir, "soigw", procs, "-topology", topoPath, "-replicas", strings.Join(urls, ";"))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.daemons = append(d.daemons, gw)
	d.base = "http://" + gw.addr
	return d, nil
}

// inprocServer is soid's serving core hosted in this process, its
// handler wrapped in a server.handler span when rec is non-nil.
type inprocServer struct {
	srv       *server.Server
	tel       *telemetry.Registry
	respBytes atomic.Int64
}

// serve listens on loopback and serves h until the returned stop is called.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { hs.Serve(ln); close(done) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// loadLikeSoid opens the artifacts the way soid does with the same flags.
func loadLikeSoid(a *artifacts, mmap bool) (*graph.Graph, []int64, *index.Index, []core.Result, *sketch.Sketch, error) {
	g, orig, err := graph.LoadFile(a.gf.path)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	var x *index.Index
	if mmap {
		x, err = index.OpenMmap(a.idxPath, g, index.MmapOptions{})
	} else {
		x, err = index.LoadFile(a.idxPath, g)
	}
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	var spheres []core.Result
	var sk *sketch.Sketch
	if a.spherePath != "" {
		if spheres, err = core.LoadSpheresFile(a.spherePath); err != nil {
			return nil, nil, nil, nil, nil, err
		}
		if sk, err = sketch.LoadFile(a.skPath); err != nil {
			return nil, nil, nil, nil, nil, err
		}
	}
	return g, orig, x, spheres, sk, nil
}

// startInproc hosts the same topology inside this process: server.New per
// artifact triple with soid's defaults, and router.New in front of them
// with soigw's defaults and an http.Client whose legs are timed.
func startInproc(shards []*artifacts, mmap bool, topo *router.Topology, rec *Recorder) (*deployment, error) {
	d := &deployment{}
	var urls []string
	for _, a := range shards {
		g, orig, x, spheres, sk, err := loadLikeSoid(a, mmap)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.closers = append(d.closers, func() { x.Close() })
		tel := telemetry.New()
		srv, err := server.New(server.Config{
			Graph: g, OrigIDs: orig, Index: x, Spheres: spheres, Sketch: sk,
			Telemetry: tel,
			Tracer:    trace.New(trace.Options{Service: "soid", Telemetry: tel}),
			Seed:      1,
		})
		if err != nil {
			d.stop()
			return nil, err
		}
		s := &inprocServer{srv: srv, tel: tel}
		url, stop, err := serve(s.handler(rec))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.closers = append(d.closers, stop)
		d.servers = append(d.servers, s)
		urls = append(urls, url)
	}
	if topo == nil {
		d.base = urls[0]
		return d, nil
	}
	gw, err := newInprocGateway(topo, urls, rec)
	if err != nil {
		d.stop()
		return nil, err
	}
	url, stop, err := serve(gw.handler(rec))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.gw = gw
	d.closers = append(d.closers, stop, gw.rt.Close)
	d.base = url
	return d, nil
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// handler wraps server.Handler: it counts response bytes and, when rec is
// non-nil, records a server.handler span linked to the caller's span by
// the benchmark's request headers.
func (s *inprocServer) handler(rec *Recorder) http.Handler {
	h := s.srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		sp := rec.Start("server.handler", r.Header.Get(hdrReq), parent)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		sp.EndHit(w.Header().Get("X-Cache") == "hit")
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			s.respBytes.Add(cw.n)
		}
	})
}

// inprocGateway is soigw's router hosted in this process.
type inprocGateway struct {
	rt  *router.Router
	tel *telemetry.Registry
}

func newInprocGateway(topo *router.Topology, urls []string, rec *Recorder) (*inprocGateway, error) {
	gw := &inprocGateway{tel: telemetry.New()}
	replicas := make([][]string, len(urls))
	for i, u := range urls {
		replicas[i] = []string{u}
	}
	client := &http.Client{Transport: &legTransport{base: &http.Transport{MaxIdleConnsPerHost: 16}, rec: rec}}
	rt, err := router.New(router.Config{
		Topology:  topo,
		Replicas:  replicas,
		Client:    client,
		Telemetry: gw.tel,
		Tracer:    trace.New(trace.Options{Service: "soigw", Telemetry: gw.tel}),
	})
	if err != nil {
		return nil, err
	}
	rt.StartProbing()
	gw.rt = rt
	return gw, nil
}

func (gw *inprocGateway) handler(rec *Recorder) http.Handler {
	h := gw.rt.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(hdrReq)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		sp := rec.Start("router.handler", req, parent)
		if sp != nil {
			r = r.WithContext(withSpan(r.Context(), req, sp.ID()))
		}
		h.ServeHTTP(w, r)
		sp.End()
	})
}

// legTransport times every gateway-to-shard request the router sends on
// behalf of a client request as a router.leg span, and forwards the span
// id so the shard's server.handler span links to it.
type legTransport struct {
	base http.RoundTripper
	rec  *Recorder
}

func (t *legTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sc, ok := spanFrom(r.Context())
	if !ok || !strings.HasPrefix(r.URL.Path, "/v1/") {
		return t.base.RoundTrip(r) // health probes
	}
	sp := t.rec.Start("router.leg", sc.req, sc.parent)
	if sp != nil {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, sc.req)
		r.Header.Set(hdrParent, strconv.FormatInt(sp.ID(), 10))
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		sp.End()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// endOnClose ends a leg span once the router has read and closed the
// leg's body.
type endOnClose struct {
	io.ReadCloser
	sp   *Open
	once sync.Once
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.End)
	return err
}
