package cascade

import (
	"context"
	"encoding/binary"
	"fmt"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/trace"
)

// ExpectedSpreadResumable estimates σ(seeds) by Monte Carlo over trials
// independent IC simulations, parallelized across workers (zero or negative
// = GOMAXPROCS) — the one implementation behind ExpectedSpread. The result
// is deterministic for a fixed seed regardless of worker count. Workers
// check ctx between simulations, so a canceled context returns ctx.Err()
// promptly; worker panics are recovered into a *pool.PanicError. cfg.Telemetry
// (nil allowed) receives per-trial cascade sizes (cascade.size), a trial
// counter (cascade.trials) and pool utilization; the
// "cascade.expected_spread" span opens under the trace span in ctx. A zero
// cfg is the plain estimate.
//
// With cfg.Path set, the per-trial cascade sizes are summed into a
// checkpoint (an order-independent integer total plus the completed-trial
// bitmap), so a crash or cancellation loses at most one flush interval of
// simulations and a rerun with the same inputs returns a value
// bit-identical to an uninterrupted run.
//
// With cfg.Budget.Deadline set, the estimator stops simulating when the
// deadline nears and returns the mean over the completed trials together
// with a *checkpoint.PartialError; the bound it carries is normalized to
// [0,1] — multiply by n for spread units.
func ExpectedSpreadResumable(ctx context.Context, g *graph.Graph, seeds []graph.NodeID, trials int, seed uint64, workers int, cfg checkpoint.Config) (float64, error) {
	if trials <= 0 {
		return 0, ctx.Err()
	}
	// sums[i] is trial i's cascade size (a node count, so an int32 like a
	// NodeID), written once before MarkDone(i) and immutable afterwards; the
	// flusher reads only marked trials.
	sums := make([]int32, trials)
	// A checkpoint stores only the total over its trials; a resumed run
	// carries it here and leaves those trials' sums at zero.
	var resumedTotal int64
	r, st, err := checkpoint.Start(cfg, trials, func() (uint64, func(*checkpoint.Bitmap) ([]byte, error)) {
		return SpreadFingerprint(g, seeds, trials, seed), func(done *checkpoint.Bitmap) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(nil, uint64(resumedTotal+sumDone(sums, done))), nil
		}
	})
	if err != nil {
		return 0, err
	}
	resumed, err := decodeSpreadPayload(st, &resumedTotal)
	if err != nil {
		r.Abort()
		return 0, err
	}

	// Trial i draws from its own split of the master generator, and Split
	// does not advance the master, so trial i is reproducible whichever
	// worker runs it.
	master := rng.New(seed)
	w := pool.Workers(workers, trials)
	visiteds := make([][]bool, w)
	tel := cfg.Telemetry
	mTrials := tel.Counter("cascade.trials")
	mSize := tel.Histogram("cascade.size")
	simulated := make(pool.Counts, w) // trials run this call, for the span
	_, sp := trace.StartChild(ctx, "cascade.expected_spread")
	runErr := pool.Run(ctx, trials, pool.Options{Workers: w, Telemetry: tel}, func(worker, i int) error {
		if resumed.Get(i) {
			return nil
		}
		if err := r.Gate(); err != nil {
			return err
		}
		visited := visiteds[worker]
		if visited == nil {
			visited = make([]bool, g.NumNodes())
			visiteds[worker] = visited
		}
		size := simulateSize(g, seeds, master.Split(uint64(i)), visited)
		sums[i] = int32(size)
		mTrials.Inc()
		mSize.Observe(int64(size))
		simulated[worker]++
		r.MarkDone(i, nil)
		return nil
	})
	sp.EndUnits(simulated.Total())

	var mean float64
	err = r.Settle(runErr, func(partial *checkpoint.Bitmap) error {
		done := trials
		if partial != nil {
			done = partial.Count()
		}
		mean = float64(resumedTotal+sumDone(sums, partial)) / float64(done)
		return nil
	})
	return mean, err
}

// sumDone totals the cascade sizes of the trials marked in done, or of
// every trial when done is nil.
func sumDone(sums []int32, done *checkpoint.Bitmap) int64 {
	var total int64
	for i := range sums {
		// Only marked trials are read: the flusher calls this while workers
		// still write the others.
		if done == nil || done.Get(i) {
			total += int64(sums[i])
		}
	}
	return total
}

// decodeSpreadPayload restores a checkpoint's trial total into total and
// returns the bitmap of trials it covers (nil when st is nil: nothing to
// resume).
func decodeSpreadPayload(st *checkpoint.State, total *int64) (*checkpoint.Bitmap, error) {
	if st == nil {
		return nil, nil
	}
	if len(st.Payload) != 8 {
		return nil, fmt.Errorf("%w: spread payload is %d bytes, want 8", checkpoint.ErrCorrupt, len(st.Payload))
	}
	*total = int64(binary.LittleEndian.Uint64(st.Payload))
	return st.Done, nil
}

// SpreadFingerprint keys ExpectedSpreadResumable checkpoints.
func SpreadFingerprint(g *graph.Graph, seeds []graph.NodeID, trials int, seed uint64) uint64 {
	return checkpoint.NewHasher().
		String("cascade.ExpectedSpread").
		Graph(g).
		Nodes(seeds).
		Int(trials).
		Uint64(seed).
		Sum()
}
