package checkpoint

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// encodeDone serializes the done-unit indexes — enough payload structure to
// verify flush/resume plumbing.
func encodeDone(done *Bitmap) ([]byte, error) {
	var out []byte
	for i := 0; i < done.Len(); i++ {
		if done.Get(i) {
			out = binary.LittleEndian.AppendUint32(out, uint32(i))
		}
	}
	return out, nil
}

// file describes a checkpoint file keyed by the fixed fingerprint fp.
func file(fp uint64, encode func(*Bitmap) ([]byte, error)) func() (uint64, func(*Bitmap) ([]byte, error)) {
	return func() (uint64, func(*Bitmap) ([]byte, error)) { return fp, encode }
}

func TestRunnerFlushOnCountTrigger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Path: path, FlushEvery: 2, FlushInterval: time.Hour}
	r, st, err := Start(cfg, 10, file(1, encodeDone))
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatal("fresh run reported a resumed state")
	}
	for i := 0; i < 4; i++ {
		r.MarkDone(i, nil)
	}
	// The flusher runs in the background; wait for the file to appear.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, err := Load(path, 1, 10); err == nil && st != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("count-triggered flush never wrote the checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Finish(false); err != nil {
		t.Fatal(err)
	}
	st, err = Load(path, 1, 10)
	if err != nil || st == nil {
		t.Fatalf("after Finish(false): st=%v err=%v", st, err)
	}
	if st.Done.Count() != 4 {
		t.Fatalf("checkpoint has %d units, want 4", st.Done.Count())
	}
	if len(st.Payload) != 16 {
		t.Fatalf("payload %d bytes, want 16", len(st.Payload))
	}
}

func TestRunnerFinishCompleteDeletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r, _, err := Start(Config{Path: path, FlushEvery: 1, FlushInterval: time.Hour}, 2, file(1, encodeDone))
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(0, nil)
	r.MarkDone(1, nil)
	if err := r.Finish(true); err != nil {
		t.Fatal(err)
	}
	if st, err := Load(path, 1, 2); err != nil || st != nil {
		t.Fatalf("checkpoint survived a complete run: st=%v err=%v", st, err)
	}
}

func TestRunnerResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Path: path, FlushEvery: 1, FlushInterval: time.Hour}
	r, _, err := Start(cfg, 5, file(1, encodeDone))
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(2, nil)
	r.MarkDone(4, nil)
	if err := r.Finish(false); err != nil {
		t.Fatal(err)
	}

	var resumedDone, resumedTotal int
	cfg.OnResume = func(done, total int) { resumedDone, resumedTotal = done, total }
	r2, st, err := Start(cfg, 5, file(1, encodeDone))
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Done.Count() != 2 || !st.Done.Get(2) || !st.Done.Get(4) {
		t.Fatalf("resumed state = %+v", st)
	}
	if resumedDone != 2 || resumedTotal != 5 {
		t.Fatalf("OnResume(%d, %d), want (2, 5)", resumedDone, resumedTotal)
	}
	if snap := r2.Snapshot(); snap.Count() != 2 {
		t.Fatalf("Snapshot count = %d, want 2 (preloaded)", snap.Count())
	}
	// A stale checkpoint (different fingerprint) aborts before compute.
	if _, _, err := Start(Config{Path: path}, 5, file(99, encodeDone)); !errors.Is(err, ErrStale) {
		t.Fatalf("stale resume: %v, want ErrStale", err)
	}
	r2.Abort()
}

func TestGateDeadline(t *testing.T) {
	r, _, err := Start(Config{Budget: Budget{Deadline: time.Now().Add(-time.Second)}}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With nothing done yet the gate admits one unit even past the deadline
	// (a partial result is never empty) …
	if err := r.Gate(); err != nil {
		t.Fatalf("Gate before first unit = %v, want nil", err)
	}
	// … and closes as soon as one unit completed.
	r.MarkDone(0, nil)
	if err := r.Gate(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Gate past deadline = %v, want ErrDeadline", err)
	}
	// Unbounded budget never gates.
	r2, _, err := Start(Config{}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Gate(); err != nil {
		t.Fatalf("unbounded Gate = %v", err)
	}
}

func TestGateThroughputMargin(t *testing.T) {
	// With one unit done and almost no time left, the throughput check must
	// stop the run even though the deadline has not strictly passed.
	r, _, err := Start(Config{Budget: Budget{Deadline: time.Now().Add(2 * time.Millisecond)}}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Gate(); err != nil {
		t.Fatalf("first unit gated: %v", err) // done == 0: always attempt one
	}
	time.Sleep(5 * time.Millisecond)
	r.MarkDone(0, nil)
	if err := r.Gate(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Gate = %v, want ErrDeadline", err)
	}
}

func TestPartialOutcome(t *testing.T) {
	r, _, err := Start(Config{Budget: Budget{Deadline: time.Now().Add(-time.Second), MinWorlds: 3}}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(0, nil)
	// 1 achieved < MinWorlds 3: hard error, not a partial result.
	if err := r.Partial(10); errors.Is(err, ErrPartial) || !errors.Is(err, ErrDeadline) {
		t.Fatalf("below minimum: %v, want hard ErrDeadline", err)
	}
	r.MarkDone(1, nil)
	r.MarkDone(2, nil)
	err = r.Partial(10)
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, ErrPartial) {
		t.Fatalf("Partial = %v, want *PartialError wrapping ErrPartial", err)
	}
	if pe.Achieved != 3 || pe.Requested != 10 || pe.Bound != ErrorBound(3) {
		t.Fatalf("PartialError = %+v", pe)
	}
}

func TestErrorBound(t *testing.T) {
	if ErrorBound(0) != 1 {
		t.Fatal("ErrorBound(0) != 1")
	}
	prev := 2.0
	for _, ell := range []int{1, 10, 100, 1000, 100000} {
		b := ErrorBound(ell)
		if b <= 0 || b >= prev {
			t.Fatalf("ErrorBound(%d) = %v, want positive and strictly decreasing", ell, b)
		}
		prev = b
	}
	// ln(2/0.05)/(2*1000) ≈ 0.0430 at ℓ=1000.
	if b := ErrorBound(1000); b < 0.042 || b > 0.044 {
		t.Fatalf("ErrorBound(1000) = %v", b)
	}
}

func TestZeroConfigRunnerIsFree(t *testing.T) {
	described := false
	r, st, err := Start(Config{}, 10, func() (uint64, func(*Bitmap) ([]byte, error)) {
		described = true
		return 1, encodeDone
	})
	if r != nil || st != nil || err != nil {
		t.Fatalf("Start(Config{}) = %v, %v, %v; want a nil Runner", r, st, err)
	}
	if described {
		t.Fatal("Start described a checkpoint file for a run without one")
	}
	// Every method a compute loop calls is a no-op on the nil Runner.
	if err := r.Gate(); err != nil {
		t.Fatalf("nil Gate = %v", err)
	}
	ran := false
	r.MarkDone(0, func() { ran = true })
	if !ran {
		t.Fatal("nil MarkDone skipped its update")
	}
	var partial *Bitmap
	called := false
	if err := r.Settle(nil, func(p *Bitmap) error { called, partial = true, p; return nil }); err != nil || !called || partial != nil {
		t.Fatalf("nil Settle(complete) = %v, called %v, partial %v", err, called, partial)
	}
	boom := errors.New("boom")
	if err := r.Settle(boom, func(*Bitmap) error { t.Fatal("result built for a failed run"); return nil }); err != boom {
		t.Fatalf("nil Settle(failure) = %v, want %v", err, boom)
	}
	r.Abort()
}

func TestSettleOutcomes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Path: path, FlushEvery: -1, FlushInterval: time.Hour,
		Budget: Budget{Deadline: time.Now().Add(-time.Second)}}

	// Deadline past the budget minimum: the value is built from the
	// completed units, annotated with a *PartialError, and the checkpoint is
	// kept for a resume.
	r, _, err := Start(cfg, 4, file(1, encodeDone))
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(1, nil)
	var got *Bitmap
	err = r.Settle(ErrDeadline, func(p *Bitmap) error { got = p; return nil })
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Achieved != 1 || pe.Requested != 4 {
		t.Fatalf("Settle(deadline) = %v, want a 1/4 *PartialError", err)
	}
	if got == nil || got.Count() != 1 || !got.Get(1) {
		t.Fatalf("partial bitmap = %+v, want unit 1 only", got)
	}
	if st, err := Load(path, 1, 4); err != nil || st == nil || st.Done.Count() != 1 {
		t.Fatalf("checkpoint after a deadline: st=%v err=%v", st, err)
	}

	// A complete run deletes the checkpoint and builds from nil.
	cfg.Budget = Budget{}
	r, st, err := Start(cfg, 4, file(1, encodeDone))
	if err != nil || st == nil {
		t.Fatalf("resume: st=%v err=%v", st, err)
	}
	for i := 0; i < 4; i++ {
		r.MarkDone(i, nil)
	}
	got = st.Done
	if err := r.Settle(nil, func(p *Bitmap) error { got = p; return nil }); err != nil || got != nil {
		t.Fatalf("Settle(complete) = %v with partial %v, want nil, nil", err, got)
	}
	if st, err := Load(path, 1, 4); err != nil || st != nil {
		t.Fatalf("checkpoint survived a complete run: st=%v err=%v", st, err)
	}

	// A failure flushes what completed and returns the failure unchanged.
	r, _, err = Start(cfg, 4, file(1, encodeDone))
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(2, nil)
	boom := errors.New("boom")
	if err := r.Settle(boom, func(*Bitmap) error { t.Fatal("result built for a failed run"); return nil }); err != boom {
		t.Fatalf("Settle(failure) = %v, want %v", err, boom)
	}
	if st, err := Load(path, 1, 4); err != nil || st == nil || !st.Done.Get(2) {
		t.Fatalf("checkpoint after a failure: st=%v err=%v", st, err)
	}
}
