package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/trace"
)

// ComputeAllResumable computes the typical cascade of every node (Algorithm
// 2), parallelized across opts.Workers, with results indexed by node id —
// the one implementation behind ComputeAll. Workers check ctx between nodes
// and a canceled context returns ctx.Err() promptly with a nil result;
// worker panics are recovered into a *pool.PanicError. A zero cfg is the
// plain sweep.
//
// With cfg.Path set, each node's computed sphere is periodically
// checkpointed, so a crash, OOM-kill, cancellation, or deadline loses at
// most one flush interval of the sweep. The checkpoint is keyed on the index
// *contents* (plus the options), so resuming against a different index is
// rejected as stale. A rerun with the same index and options produces
// spheres bit-identical to an uninterrupted sweep — each node's computation
// depends only on the index and its own derived cost seed.
//
// With cfg.Budget.Deadline set, the sweep stops when the deadline nears and
// returns the partial result with a *checkpoint.PartialError: results are
// still indexed by node id, and nodes that were not reached have a nil Seeds
// field (callers report or skip them); the checkpoint is kept so a later run
// finishes the rest.
func ComputeAllResumable(ctx context.Context, x *index.Index, opts Options, cfg checkpoint.Config) ([]Result, error) {
	n := x.Graph().NumNodes()
	out := make([]Result, n)

	r, st, err := checkpoint.Start(cfg, n, func() (uint64, func(*checkpoint.Bitmap) ([]byte, error)) {
		return sweepFingerprint(x, opts), func(done *checkpoint.Bitmap) ([]byte, error) {
			return checkpoint.EncodeUnits(done, func(w io.Writer, v int) error { return writeResult(w, &out[v]) })
		}
	})
	if err != nil {
		return nil, err
	}
	resumed, err := decodeSweepPayload(st, n, out)
	if err != nil {
		r.Abort()
		return nil, err
	}

	workers := pool.Workers(opts.Workers, n)
	scratches := make([]*Scratch, workers)
	// The registry can arrive on the options, on the Config (how cliutil
	// threads it into resumable paths) or on the index.
	tel := cmp.Or(opts.Telemetry, cfg.Telemetry, x.Telemetry())
	m := newMetricsSet(tel)
	computed := make(pool.Counts, workers) // nodes computed this run, for the span
	_, sp := trace.StartChild(ctx, "core.compute_all")
	runErr := pool.Run(ctx, n, pool.Options{Workers: workers, Progress: opts.Progress, Telemetry: tel},
		func(worker, task int) error {
			if resumed.Get(task) {
				return nil
			}
			if err := r.Gate(); err != nil {
				return err
			}
			s := scratches[worker]
			if s == nil {
				s = NewScratch(x)
				scratches[worker] = s
			}
			v := graph.NodeID(task)
			o := opts
			if o.CostSamples > 0 {
				// Derive a distinct, stable cost seed per node so the
				// held-out estimates are independent across nodes.
				o.CostSeed = rng.Mix64(opts.CostSeed ^ uint64(v))
			}
			out[v] = computeWithScratch(x, []graph.NodeID{v}, o, s, m)
			computed[worker]++
			r.MarkDone(task, nil)
			return nil
		})
	sp.EndUnits(computed.Total())

	// Results stay indexed by node id whether or not every node completed.
	var res []Result
	err = r.Settle(runErr, func(*checkpoint.Bitmap) error {
		res = out
		return nil
	})
	return res, err
}

// sweepFingerprint keys ComputeAllResumable checkpoints on the index
// contents and every option that affects the computed spheres.
func sweepFingerprint(x *index.Index, opts Options) uint64 {
	return checkpoint.NewHasher().
		String("core.ComputeAll").
		Uint64(x.Fingerprint()).
		Int(int(opts.Algorithm)).
		Int(opts.CostSamples).
		Uint64(opts.CostSeed).
		Int(int(opts.Model)).
		Sum()
}

// writeResult serializes one node's sphere for the checkpoint payload: the
// sorted set, both cost estimates, and the timing fields (so a resumed sweep
// reports the original computation's timings, not zeros).
func writeResult(w io.Writer, res *Result) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(res.Set))); err != nil {
		return err
	}
	if len(res.Set) > 0 {
		if err := binary.Write(w, binary.LittleEndian, res.Set); err != nil {
			return err
		}
	}
	for _, v := range []any{res.SampleCost, res.ExpectedCost, int64(res.MedianTime), int64(res.CostTime)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// decodeSweepPayload restores completed spheres from a checkpoint payload
// and returns the bitmap of nodes it restored (nil when st is nil: nothing
// to resume).
func decodeSweepPayload(st *checkpoint.State, n int, out []Result) (*checkpoint.Bitmap, error) {
	if st == nil {
		return nil, nil
	}
	err := checkpoint.DecodeUnits(st, "sweep", func(r io.Reader, id int) error {
		var setLen uint32
		if err := binary.Read(r, binary.LittleEndian, &setLen); err != nil {
			return err
		}
		if int(setLen) > n {
			return fmt.Errorf("sphere size %d exceeds node count", setLen)
		}
		set := make([]graph.NodeID, setLen)
		if setLen > 0 {
			if err := binary.Read(r, binary.LittleEndian, set); err != nil {
				return fmt.Errorf("set: %v", err)
			}
		}
		var sampleCost, expectedCost float64
		var medianNS, costNS int64
		for _, p := range []any{&sampleCost, &expectedCost, &medianNS, &costNS} {
			if err := binary.Read(r, binary.LittleEndian, p); err != nil {
				return fmt.Errorf("costs: %v", err)
			}
		}
		out[id] = Result{
			Seeds:        []graph.NodeID{graph.NodeID(id)},
			Set:          set,
			SampleCost:   sampleCost,
			ExpectedCost: expectedCost,
			MedianTime:   time.Duration(medianNS),
			CostTime:     time.Duration(costNS),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st.Done, nil
}
