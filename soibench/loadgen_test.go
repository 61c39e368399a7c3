package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests injects a stall into a stub
// handler and checks that the open-loop generator charges it to every
// request queued behind it: their latency, timed from when each was due,
// includes the wait, and the generator reports that it ran late. The
// closed-loop view of the same requests (send to completion) hides it.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 500 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	// 100 requests at 100/s from one sender; request 10 stalls, so the
	// requests due in the next 500ms queue in the generator.
	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i] = Request{Kind: "stub", Path: "/ok"}
	}
	reqs[10].Path = "/stall"
	outs := openLoop(context.Background(), httpSender(srv.Client(), srv.URL, nil), reqs, 100, 1)

	st := loadStats(outs)
	if st.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", st.Completed, len(reqs))
	}
	// Requests 11..30 were due 10..200ms into the stall.
	for i := 11; i <= 30; i++ {
		o := &outs[i]
		if o.Latency() < 250*time.Millisecond {
			t.Errorf("request %d: due-time latency %v hides the stall ahead of it", i, o.Latency())
		}
		if o.Service() > 100*time.Millisecond {
			t.Errorf("request %d: service time %v, want the instant handler's", i, o.Service())
		}
	}
	lag := tail("loadgen.lag_p99_ms", "ms", st.Lag)
	if lag.Value < 250 {
		t.Errorf("loadgen.lag_p99_ms = %.1f ms (p%g), want the stall to show", lag.Value, 100*lag.Quantile)
	}
	closed := tail("closed", "ms", st.Service)
	open := tail("open", "ms", st.Latency)
	if !(open.Value > 2*closed.Value && closed.Value < 100) {
		t.Errorf("tail latency open loop %.1f ms vs closed loop %.1f ms: want only the open loop to show the stall", open.Value, closed.Value)
	}
}

// TestOpenLoopSendsOnSchedule checks that an unloaded generator keeps to
// its schedule: requests go out when due, and never more than the
// configured number are in flight.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	inflight := make(chan struct{}, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case inflight <- struct{}{}:
		default:
			t.Error("more than 2 requests in flight")
		}
		time.Sleep(2 * time.Millisecond)
		<-inflight
	}))
	defer srv.Close()
	reqs := make([]Request, 50)
	for i := range reqs {
		reqs[i] = Request{Kind: "stub", Path: "/"}
	}
	start := time.Now()
	outs := openLoop(context.Background(), httpSender(srv.Client(), srv.URL, nil), reqs, 200, 2)
	if d := time.Since(start); d < 240*time.Millisecond {
		t.Errorf("50 requests at 200/s took %v, want about 250ms", d)
	}
	for i := 1; i < len(outs); i++ {
		if got := outs[i].Due.Sub(outs[i-1].Due); got != 5*time.Millisecond {
			t.Fatalf("request %d due %v after the previous one, want 5ms", i, got)
		}
	}
}
