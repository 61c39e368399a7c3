package main

import (
	"context"
	"io"
	"net/http"
	"time"
)

// Request is one generated query: an HTTP path on the served /v1 surface
// plus what the checker needs to recompute its answer.
type Request struct {
	Kind  string
	Path  string
	Seeds []int64 // original node ids
	K     int
}

// Outcome is what the generator observed for one request. Due is when the
// open-loop schedule wanted it sent, Sent when a sender picked it up and
// Done when its response body had been read.
type Outcome struct {
	Due, Sent, Done time.Time
	Status          int
	Body            []byte
	Err             error
}

// Latency is the user-visible time, measured from when the request was due.
func (o *Outcome) Latency() time.Duration { return o.Done.Sub(o.Due) }

// Lag is how late the generator sent the request.
func (o *Outcome) Lag() time.Duration { return o.Sent.Sub(o.Due) }

// Service is the closed-loop view: send to completion, ignoring lateness.
func (o *Outcome) Service() time.Duration { return o.Done.Sub(o.Sent) }

// Sender issues request i and returns its status and body.
type Sender func(ctx context.Context, i int, r Request) (status int, body []byte, err error)

// httpSender sends GETs to base over client; header, if non-nil, adds
// headers to request i.
func httpSender(client *http.Client, base string, header func(i int, h http.Header)) Sender {
	return func(ctx context.Context, i int, r Request) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+r.Path, nil)
		if err != nil {
			return 0, nil, err
		}
		if header != nil {
			header(i, req.Header)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

// openLoop sends reqs on a fixed schedule, request i due at start+i/rate,
// from inflight senders. A request whose senders are all busy when it falls
// due waits in the generator and is sent late; its latency still counts
// from its due time, so a stall delays everything queued behind it exactly
// as independent users would see it. Outcomes are indexed like reqs.
func openLoop(ctx context.Context, send Sender, reqs []Request, rate float64, inflight int) []Outcome {
	out := make([]Outcome, len(reqs))
	work := make(chan int)
	done := make(chan struct{})
	for w := 0; w < inflight; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range work {
				o := &out[i]
				o.Sent = time.Now()
				o.Status, o.Body, o.Err = send(ctx, i, reqs[i])
				o.Done = time.Now()
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].Due = due
		work <- i
	}
	close(work)
	for w := 0; w < inflight; w++ {
		<-done
	}
	return out
}

// LoadStats summarizes a slice of outcomes.
type LoadStats struct {
	Latency   []float64 // ms from due time, successful requests only
	Service   []float64 // ms from send time, successful requests only
	Lag       []float64 // ms, every request
	Sent      int
	Completed int // 2xx responses
	Partial   int // 206 responses
}

func loadStats(outs []Outcome) LoadStats {
	var s LoadStats
	for i := range outs {
		o := &outs[i]
		s.Sent++
		s.Lag = append(s.Lag, ms(o.Lag()))
		if !statusOK(o) {
			continue
		}
		s.Completed++
		if o.Status == http.StatusPartialContent {
			s.Partial++
		}
		s.Latency = append(s.Latency, ms(o.Latency()))
		s.Service = append(s.Service, ms(o.Service()))
	}
	return s
}

// statusOK reports whether an outcome counts as answered.
func statusOK(o *Outcome) bool {
	return o.Err == nil && o.Status >= 200 && o.Status < 300
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
