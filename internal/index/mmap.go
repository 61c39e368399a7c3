package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"soi/internal/blockfile"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/telemetry"
)

// Page-on-demand serving of an index file: OpenMmap verifies only the
// container's header and directory (a few KB) and every world block is
// faulted in, CRC-verified and decoded independently on first touch. The
// per-block CRC turns corruption from a fatal whole-file property into a
// per-world one — a bad block quarantines that world and the other ℓ-1 keep
// answering. The eager Read path is strict; quarantine-and-degrade is the
// serving behavior.

// MmapOptions configures OpenMmap.
type MmapOptions struct {
	// MaxResident bounds how many decoded world blocks are kept in memory at
	// once; faulting in past the bound evicts the oldest (FIFO). 0 means
	// unbounded — every block faulted in stays resident.
	MaxResident int
	// Telemetry, if non-nil, receives index.block_faults and
	// index.worlds_quarantined counters (and is attached to the index).
	Telemetry *telemetry.Registry
	// OnQuarantine, if non-nil, is called once per quarantined world with
	// the world id and the corruption error, from whichever query goroutine
	// first faulted the bad block in.
	OnQuarantine func(world int, err error)
}

// lazyWorlds is the page-on-demand backing of an mmap-opened index: the
// verified directory plus a per-world cache of decoded blocks. Fault-in is
// lock-free (atomic pointer CAS; concurrent faulters race benignly and the
// losers' decodes are discarded); only the optional eviction FIFO takes a
// lock, off the cache-hit path.
type lazyWorlds struct {
	win    *blockfile.Window
	nodes  uint32
	dir    []blockfile.BlockInfo
	loaded []atomic.Pointer[worldEntry]

	quar    []atomic.Bool
	nQuar   atomic.Int64
	onQuar  func(world int, err error)
	faults  *telemetry.Counter // index.block_faults
	quarCtr *telemetry.Counter // index.worlds_quarantined

	maxResident int
	mu          sync.Mutex
	resident    []int // FIFO of faulted-in world ids (maxResident > 0 only)
}

// OpenMmap opens an index file for page-on-demand serving: only the header
// and block directory are read and verified now; world blocks are faulted
// in, CRC-checked, and decoded on first query touch. A block that fails its
// checksum or decode is quarantined — counted, reported through
// OnQuarantine, and never retried — and queries degrade to the surviving
// worlds instead of failing. Truncated or torn files are rejected here,
// from the directory, before any block is trusted.
func OpenMmap(path string, g *graph.Graph, opts MmapOptions) (*Index, error) {
	if err := fault.Hit(fault.IndexDirLoad); err != nil {
		return nil, fmt.Errorf("index: directory load: %w", err)
	}
	win, err := blockfile.OpenWindow(path)
	if err != nil {
		return nil, err
	}
	nodes, dir, err := win.Directory(Artifact)
	if err == nil && int(nodes) != g.NumNodes() {
		err = fmt.Errorf("index: built for %d nodes, graph has %d", nodes, g.NumNodes())
	}
	if err != nil {
		win.Close()
		return nil, err
	}
	lz := &lazyWorlds{
		win:         win,
		nodes:       nodes,
		dir:         dir,
		loaded:      make([]atomic.Pointer[worldEntry], len(dir)),
		quar:        make([]atomic.Bool, len(dir)),
		onQuar:      opts.OnQuarantine,
		faults:      opts.Telemetry.Counter("index.block_faults"),
		quarCtr:     opts.Telemetry.Counter("index.worlds_quarantined"),
		maxResident: opts.MaxResident,
	}
	x := &Index{g: g, lazy: lz, tel: opts.Telemetry}
	x.setFingerprint(dir)
	return x, nil
}

// world returns world i, faulting its block in on first touch; nil means
// the world is quarantined.
func (lz *lazyWorlds) world(i int) *worldEntry {
	if lz.quar[i].Load() {
		return nil
	}
	if e := lz.loaded[i].Load(); e != nil {
		return e
	}
	if err := fault.Hit(fault.IndexBlockFault); err != nil {
		return lz.quarantine(i, fmt.Errorf("index: world %d fault-in: %w", i, err))
	}
	b := lz.dir[i]
	data, err := lz.win.ReadVerified(b.Off, b.Len, b.CRC)
	if err != nil {
		return lz.quarantine(i, fmt.Errorf("index: world %d: %w", i, err))
	}
	e, err := decodeWorld(data, lz.nodes, b.Aux)
	if err != nil {
		return lz.quarantine(i, fmt.Errorf("index: %w: world %d: %v", blockfile.ErrCorrupt, i, err))
	}
	lz.faults.Inc()
	ep := &e
	if !lz.loaded[i].CompareAndSwap(nil, ep) {
		// A concurrent faulter won; use its copy (unless eviction already
		// cleared it again, in which case ours is as good as any).
		if cur := lz.loaded[i].Load(); cur != nil {
			return cur
		}
		lz.loaded[i].Store(ep)
	}
	lz.noteResident(i)
	return ep
}

// quarantine marks world i bad exactly once: the counter, telemetry, and
// callback fire only for the winning caller. Quarantine is one-way — the
// block is never retried hot (the bytes will not get better; soifsck is the
// repair path).
func (lz *lazyWorlds) quarantine(i int, err error) *worldEntry {
	if lz.quar[i].CompareAndSwap(false, true) {
		lz.nQuar.Add(1)
		lz.quarCtr.Inc()
		if lz.onQuar != nil {
			lz.onQuar(i, err)
		}
	}
	return nil
}

// noteResident does the FIFO-eviction bookkeeping after a successful
// fault-in. Evicted pointers are Store(nil)-ed; readers already holding the
// pointer keep a valid entry (the GC, not the cache, owns lifetime).
func (lz *lazyWorlds) noteResident(i int) {
	if lz.maxResident <= 0 {
		return
	}
	lz.mu.Lock()
	lz.resident = append(lz.resident, i)
	for len(lz.resident) > lz.maxResident {
		old := lz.resident[0]
		lz.resident = lz.resident[1:]
		if old != i {
			lz.loaded[old].Store(nil)
		}
	}
	lz.mu.Unlock()
}

// LiveWorlds returns the number of worlds still answering queries:
// NumWorlds minus quarantined. Estimators divide by this, so quarantine
// shrinks the sample instead of biasing it with empty cascades.
func (x *Index) LiveWorlds() int {
	if x.lazy != nil {
		return len(x.lazy.dir) - int(x.lazy.nQuar.Load())
	}
	return len(x.entries)
}

// QuarantinedWorlds returns how many worlds have been quarantined so far
// (0 for eagerly loaded indexes, which reject corruption at load).
func (x *Index) QuarantinedWorlds() int {
	if x.lazy != nil {
		return int(x.lazy.nQuar.Load())
	}
	return 0
}

// Lazy reports whether the index serves blocks on demand from a file window
// (an OpenMmap index) rather than from decoded-up-front entries.
func (x *Index) Lazy() bool { return x.lazy != nil }

// Mapped reports whether a lazy index is backed by a real memory mapping
// (false: eager index, or the heap-buffered fallback platform).
func (x *Index) Mapped() bool { return x.lazy != nil && x.lazy.win.Mapped() }

// ResidentWorlds returns how many world blocks are currently decoded in
// memory. For an eager index this is every world.
func (x *Index) ResidentWorlds() int {
	if x.lazy == nil {
		return len(x.entries)
	}
	n := 0
	for i := range x.lazy.loaded {
		if x.lazy.loaded[i].Load() != nil {
			n++
		}
	}
	return n
}

// Close releases the file window of an OpenMmap index. Queries after Close
// on not-yet-resident worlds will quarantine them (the window is gone);
// close only after the last query. Eager indexes have nothing to release.
func (x *Index) Close() error {
	if x.lazy == nil {
		return nil
	}
	return x.lazy.win.Close()
}
