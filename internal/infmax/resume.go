package infmax

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// RRResumable selects k seeds by greedy max-cover over opts.Sets sampled
// reverse-reachable sets — the one implementation behind RR. Gains are in
// expected-spread units (n · covered/sets). ctx is checked between RR-set
// samples and between greedy rounds, so a canceled context returns
// ctx.Err() promptly — exactly the "stoppable sampler" discipline RR-sketch
// methods presume. A zero cfg is the plain selection.
//
// With cfg.Path set, sampled RR sets are periodically checkpointed, so a
// crash or cancellation mid-sampling loses at most one flush interval of RR
// sets and a rerun with the same graph, Sets, and Seed selects seeds
// bit-identical to an uninterrupted run (RR set i depends only on its own
// split generator).
//
// The checkpoint fingerprint deliberately excludes k: the stored RR sets are
// valid for any seed-set size, and the greedy max-cover over them is cheap
// relative to sampling, so the same checkpoint can finish runs with
// different k.
//
// With cfg.Budget.Deadline set, sampling stops when the deadline nears and
// the greedy runs over the RR sets sampled so far — the sketch's native
// anytime behaviour (Borgs et al.: sample count is a budget, and the
// estimate degrades gracefully as it shrinks). The result carries a
// *checkpoint.PartialError; gains are scaled by n/achieved, keeping them in
// expected-spread units.
func RRResumable(ctx context.Context, g *graph.Graph, k int, opts RROptions, cfg checkpoint.Config) (Selection, error) {
	if err := validateK(k, g.NumNodes()); err != nil {
		return Selection{}, err
	}
	if opts.Sets < 1 {
		return Selection{}, fmt.Errorf("infmax: RR Sets must be >= 1, got %d", opts.Sets)
	}
	n := g.NumNodes()

	// The sampled sets form one CSR: set i is setNodes[setOff[i]:setOff[i+1]].
	// Sets are sampled in id order, so the completed ones are always a
	// prefix of it.
	setOff := make([]int32, opts.Sets+1)
	var setNodes []graph.NodeID
	arena := &rrArena{}
	r, st, err := checkpoint.Start(cfg, opts.Sets, func() (uint64, func(*checkpoint.Bitmap) ([]byte, error)) {
		fp := checkpoint.NewHasher().
			String("infmax.RR").
			Graph(g).
			Int(opts.Sets).
			Uint64(opts.Seed).
			Sum()
		return fp, func(done *checkpoint.Bitmap) ([]byte, error) {
			return encodeRRSets(setOff, arena.load(), done)
		}
	})
	if err != nil {
		return Selection{}, err
	}
	setNodes, first, err := decodeRRPayload(st, n, setOff, setNodes)
	if err != nil {
		r.Abort()
		return Selection{}, err
	}
	arena.publish(setNodes)

	tel := opts.Telemetry
	if tel == nil {
		tel = cfg.Telemetry
	}
	mSets := tel.Counter("infmax.rr_sets")
	mSetSize := tel.Histogram("infmax.rr_set_size")
	_, spSample := trace.StartChild(ctx, "infmax.rr.sample")
	rev := g.Reverse()
	master := rng.New(opts.Seed)
	visited := make([]bool, n)
	var buf []graph.NodeID
	var runErr error
	sets := first
	for ; sets < opts.Sets; sets++ {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		if runErr = r.Gate(); runErr != nil {
			break
		}
		rnd := master.Split(uint64(sets))
		target := graph.NodeID(rnd.Intn(n))
		// Reverse live-edge BFS: nodes that can reach target forward are
		// nodes reachable from target in the transpose; lazy edge flips
		// give the correct distribution exactly as forward sampling does.
		buf = lazyReach(rev, target, rnd, visited, buf[:0])
		moved := cap(setNodes)
		setNodes = append(setNodes, buf...)
		if cap(setNodes) != moved {
			arena.publish(setNodes)
		}
		setOff[sets+1] = int32(len(setNodes))
		mSets.Inc()
		mSetSize.Observe(int64(len(buf)))
		r.MarkDone(sets, nil)
	}
	spSample.EndUnits(int64(sets - first))

	// Complete or not, the sets sampled so far are the CSR prefix up to
	// sets.
	var sel Selection
	err = r.Settle(runErr, func(*checkpoint.Bitmap) error {
		var gerr error
		sel, gerr = rrGreedy(ctx, g, k, setOff[:sets+1], setNodes[:setOff[sets]], tel)
		return gerr
	})
	return sel, err
}

// rrArena hands the growing set arena to the checkpoint flusher, which
// encodes the completed sets while sampling appends past them. An append
// that outgrows the arena moves it, so every move is published under mu.
type rrArena struct {
	mu    sync.Mutex
	nodes []graph.NodeID
}

func (a *rrArena) publish(nodes []graph.NodeID) {
	a.mu.Lock()
	a.nodes = nodes
	a.mu.Unlock()
}

// load returns the current arena extended to its capacity: sets completed
// after the last move were appended in place, past its published length.
func (a *rrArena) load() []graph.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nodes[:cap(a.nodes)]
}

// encodeRRSets is the RR checkpoint payload: the size and nodes of every
// set marked in done, a prefix of the CSR.
func encodeRRSets(setOff []int32, setNodes []graph.NodeID, done *checkpoint.Bitmap) ([]byte, error) {
	return checkpoint.EncodeUnits(done, func(w io.Writer, i int) error {
		set := setNodes[setOff[i]:setOff[i+1]]
		if err := binary.Write(w, binary.LittleEndian, uint32(len(set))); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, set)
	})
}

// rrGreedy is the max-cover phase of the RR method over the CSR of sampled
// sets (set i is setNodes[setOff[i]:setOff[i+1]]). Gains are scaled by
// n/sets (expected-spread units).
func rrGreedy(ctx context.Context, g *graph.Graph, k int, setOff []int32, setNodes []graph.NodeID, tel *telemetry.Registry) (Selection, error) {
	n := g.NumNodes()
	numSets := len(setOff) - 1
	counts := make([]int32, n) // uncovered RR sets containing each node
	for _, v := range setNodes {
		counts[v]++
	}
	covered := make([]bool, numSets)
	chosen := make([]bool, n)
	scale := float64(n) / float64(numSets)
	sel := Selection{Seeds: make([]graph.NodeID, 0, k), Gains: make([]float64, 0, k)}
	containing := invertSets(n, setOff, setNodes)
	if k > n {
		k = n
	}
	gm := newGreedyMetrics(tel)
	_, sp := trace.StartChild(ctx, "infmax.rr.greedy")
	defer func() { sp.EndUnits(int64(len(sel.Seeds))) }()
	for round := 0; round < k; round++ {
		if err := ctx.Err(); err != nil {
			return Selection{}, err
		}
		best := graph.NodeID(-1)
		var bestCount int32 = -1
		evals := 0
		for v := 0; v < n; v++ {
			if chosen[v] {
				continue
			}
			sel.LazyEvaluations++
			evals++
			if counts[v] > bestCount {
				bestCount = counts[v]
				best = graph.NodeID(v)
			}
		}
		gm.evals.Add(int64(evals))
		if best < 0 {
			break
		}
		chosen[best] = true
		sel.Seeds = append(sel.Seeds, best)
		sel.Gains = append(sel.Gains, float64(bestCount)*scale)
		gm.commit(float64(bestCount) * scale)
		// Mark every RR set containing best as covered and decrement the
		// counts of their members — keeps counts exact for later rounds.
		lo, hi := containing.off[best], containing.off[best+1]
		for _, si := range containing.sets[lo:hi] {
			if covered[si] {
				continue
			}
			covered[si] = true
			for _, v := range setNodes[setOff[si]:setOff[si+1]] {
				counts[v]--
			}
		}
	}
	return sel, nil
}

// decodeRRPayload appends the RR sets of a checkpoint payload to the CSR
// (setOff, setNodes) and returns the grown arena and how many sets it
// restored (none when st is nil). Sampling completes sets in id order, so a
// valid checkpoint holds exactly the first sets, in order.
func decodeRRPayload(st *checkpoint.State, n int, setOff []int32, setNodes []graph.NodeID) ([]graph.NodeID, int, error) {
	if st == nil {
		return setNodes, 0, nil
	}
	restored := 0
	err := checkpoint.DecodeUnits(st, "rr", func(r io.Reader, id int) error {
		if id != restored {
			return fmt.Errorf("set %d where set %d of the done prefix belongs", id, restored)
		}
		var size uint32
		if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
			return err
		}
		if int(size) > n || size == 0 {
			return fmt.Errorf("implausible size %d", size)
		}
		start := len(setNodes)
		setNodes = slices.Grow(setNodes, int(size))[:start+int(size)]
		set := setNodes[start:]
		if err := binary.Read(r, binary.LittleEndian, set); err != nil {
			return fmt.Errorf("nodes: %v", err)
		}
		for _, v := range set {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("out-of-range node %d", v)
			}
		}
		restored++
		setOff[restored] = int32(len(setNodes))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return setNodes, restored, nil
}
