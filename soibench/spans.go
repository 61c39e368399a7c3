package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the caller's span id
// (0 for a root). Replayed spans re-run a layer call after the traffic on
// the same inputs: they are charged to their parent by duration, since
// they do not lie inside its interval.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
	Hit    bool   `json:"cache_hit,omitempty"` // server.handler answered from its cache
}

func (s *Span) dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run writes them out. A nil
// *Recorder records nothing, so untraced runs pay one nil check per call.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
	counts map[string]Count
}

// Count is a per-request quantity counted at a layer boundary.
type Count struct {
	sum float64
	n   int
}

// count adds one request's value of the named per-layer count.
func (r *Recorder) count(name string, v float64) {
	r.mu.Lock()
	c := r.counts[name]
	r.counts[name] = Count{c.sum + v, c.n + 1}
	r.mu.Unlock()
}

// Counts returns a copy of the per-layer counts.
func (r *Recorder) Counts() map[string]Count {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Count, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

func newRecorder() *Recorder { return &Recorder{origin: time.Now(), counts: map[string]Count{}} }

// Open is an in-progress span; End records it.
type Open struct {
	r *Recorder
	s Span
}

func (r *Recorder) Start(name, req string, parent int64) *Open {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, Span{ID: id}) // reserve the id
	r.mu.Unlock()
	return &Open{r: r, s: Span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.origin))}}
}

// ID returns the span id (0 for a nil span).
func (o *Open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *Open) End() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.origin))
	o.r.mu.Lock()
	o.r.spans[o.s.ID-1] = o.s
	o.r.mu.Unlock()
}

// EndHit records a server.handler span that its cache answered.
func (o *Open) EndHit(hit bool) {
	if o != nil {
		o.s.Hit = hit
		o.End()
	}
}

// EndReplay records the span as a replay of work its parent did earlier.
func (o *Open) EndReplay() {
	if o != nil {
		o.s.Replay = true
		o.End()
	}
}

// Spans returns a copy of every completed span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.Name != "" && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that live children cover, minus the durations of
// its replayed children, floored at zero.
func selfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]*Span{}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		var live [][2]int64
		var replayed int64
		for _, c := range kids[s.ID] {
			if c.Replay {
				replayed += c.dur()
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				live = append(live, [2]int64{lo, hi})
			}
		}
		v := s.dur() - covered(live) - replayed
		if v < 0 {
			v = 0
		}
		self[s.ID] = v
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
			continue
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// spanCtx carries the current request id and span id across an
// in-process call boundary (the router's legs).
type spanCtx struct {
	req    string
	parent int64
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, req string, parent int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{req, parent})
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc, ok
}

// Headers carry the request id and parent span across loopback HTTP.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)
