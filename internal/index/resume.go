package index

import (
	"context"
	"fmt"
	"io"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/trace"
	"soi/internal/worlds"
)

// BuildResumable samples opts.Samples possible worlds of g and indexes them
// — the one implementation behind Build. Worker goroutines check ctx
// between worlds, so a canceled or expired context returns ctx.Err()
// promptly; a worker panic is recovered and returned as a *pool.PanicError.
// A zero cfg is the plain build.
//
// With cfg.Path set, completed worlds are periodically checkpointed
// (atomically, off the worker hot path) so a crash, OOM-kill, cancellation,
// or deadline loses at most one flush interval of work instead of the whole
// build. A rerun with the same graph, options, and checkpoint path resumes
// from the bitmap of completed worlds and — because world i depends only on
// its own split generator — produces an index bit-identical to an
// uninterrupted build.
//
// With cfg.Budget.Deadline set, the build stops sampling when the deadline
// nears and returns a partial index over the completed worlds together with
// a *checkpoint.PartialError (errors.Is(err, checkpoint.ErrPartial)); the
// checkpoint is kept so a later run can finish the remaining worlds. The
// checkpoint is deleted only when every world completes.
func BuildResumable(ctx context.Context, g *graph.Graph, opts Options, cfg checkpoint.Config) (*Index, error) {
	if opts.Samples < 1 {
		return nil, fmt.Errorf("index: Samples must be >= 1, got %d", opts.Samples)
	}
	if opts.Model == LT {
		if err := worlds.ValidateLTWeights(g); err != nil {
			return nil, err
		}
		// Warm the transpose once; SampleLT uses it and Reverse memoizes
		// without synchronization.
		g.Reverse()
	}

	// The registry can arrive on either options struct; the checkpoint Config
	// is how cliutil threads it into resumable paths.
	if opts.Telemetry == nil {
		opts.Telemetry = cfg.Telemetry
	}
	idx := &Index{g: g, entries: make([]worldEntry, opts.Samples), tel: opts.Telemetry}
	r, st, err := checkpoint.Start(cfg, opts.Samples, func() (uint64, func(*checkpoint.Bitmap) ([]byte, error)) {
		return BuildFingerprint(g, opts), idx.encodeWorlds
	})
	if err != nil {
		return nil, err
	}
	resumed, err := decodeBuildPayload(st, uint32(g.NumNodes()), idx.entries)
	if err != nil {
		r.Abort()
		return nil, err
	}

	// World i draws from its own split of the master generator, and Split
	// does not advance the master, so world i is reproducible whichever
	// worker — in whichever run — samples it.
	master := rng.New(opts.Seed)
	bm := newBuildMetrics(opts.Telemetry)
	workers := pool.Workers(opts.Workers, opts.Samples)
	built := make(pool.Counts, workers) // worlds built this run, for the span
	_, sp := trace.StartChild(ctx, "index.build")
	runErr := pool.Run(ctx, opts.Samples,
		pool.Options{Workers: workers, Progress: opts.Progress, Telemetry: opts.Telemetry},
		func(worker, i int) error {
			if resumed.Get(i) {
				return nil
			}
			if err := r.Gate(); err != nil {
				return err
			}
			idx.entries[i] = buildEntry(g, master.Split(uint64(i)), opts, bm)
			built[worker]++
			r.MarkDone(i, nil)
			return nil
		})
	sp.EndUnits(built.Total())

	var out *Index
	err = r.Settle(runErr, func(partial *checkpoint.Bitmap) error {
		out = idx.compact(partial)
		return nil
	})
	return out, err
}

// encodeWorlds is the build checkpoint payload: the entry of every world
// marked in done.
func (x *Index) encodeWorlds(done *checkpoint.Bitmap) ([]byte, error) {
	return checkpoint.EncodeUnits(done, func(w io.Writer, i int) error { return writeEntry(w, &x.entries[i]) })
}

// compact returns an index over only the worlds marked done, in ascending
// world order — the partial result of a deadline-bounded build. A nil done
// means every world completed, and x itself is returned.
func (x *Index) compact(done *checkpoint.Bitmap) *Index {
	if done == nil {
		return x
	}
	out := &Index{g: x.g, entries: make([]worldEntry, 0, done.Count()), tel: x.tel}
	for i := 0; i < done.Len(); i++ {
		if done.Get(i) {
			out.entries = append(out.entries, x.entries[i])
		}
	}
	return out
}

// BuildFingerprint keys BuildResumable checkpoints: any change to the graph,
// the sample count, the seed, the model, or the reduction options yields a
// different fingerprint and makes old checkpoints checkpoint.ErrStale.
func BuildFingerprint(g *graph.Graph, opts Options) uint64 {
	return checkpoint.NewHasher().
		String("index.Build").
		Graph(g).
		Int(opts.Samples).
		Uint64(opts.Seed).
		Bool(opts.TransitiveReduction).
		Int(opts.MaxExactReduction).
		Int(int(opts.Model)).
		Sum()
}

// decodeBuildPayload restores completed worlds from a checkpoint payload
// and returns the bitmap of worlds it restored (nil when st is nil: nothing
// to resume).
func decodeBuildPayload(st *checkpoint.State, nodes uint32, entries []worldEntry) (*checkpoint.Bitmap, error) {
	if st == nil {
		return nil, nil
	}
	err := checkpoint.DecodeUnits(st, "index", func(r io.Reader, id int) error {
		e, err := readEntry(r, nodes)
		entries[id] = e
		return err
	})
	if err != nil {
		return nil, err
	}
	return st.Done, nil
}
