// Package checkpoint is the crash-safe execution layer under every
// long-running compute path in the library (index building, the all-nodes
// typical-cascade sweep, Monte-Carlo spread estimation, RR-set sampling).
//
// Each of those paths decomposes into independent, deterministically seeded
// units (worlds, nodes, trials, RR sets). A checkpoint file records which
// units are complete — a bitmap — plus a path-specific payload holding the
// partial accumulators for the completed units. The file is rewritten
// periodically and atomically; a crash, OOM-kill, or cancellation therefore
// loses at most one flush interval of work, and a restart with the same
// graph, parameters, and RNG seed resumes from the bitmap and produces
// results bit-identical to an uninterrupted run (unit i depends only on its
// own split generator, never on scheduling order).
//
// Stale checkpoints are rejected, not silently resumed: the file is keyed by
// a fingerprint of the graph, the parameters, and the seed, and a mismatch
// surfaces as ErrStale. Corruption (truncation, bit flips) is caught by the
// container's CRC32-C checksums and surfaces as ErrCorrupt.
//
// # File format
//
// A checkpoint is a blockfile container (see internal/blockfile) with magic
// "SOICKP02" and the total unit count as its size word (little endian):
//
//	block 0  meta: fingerprint u64 (caller-computed key: graph + params +
//	         seed), done u32 (population count of the bitmap)
//	block 1  completed-unit bitmap, ceil(units/8) bytes, LSB-first
//	block 2  path-specific partial accumulators
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/fault"
	"soi/internal/graph"
)

var (
	// ErrStale marks a checkpoint whose fingerprint (or unit count) does not
	// match the current run: the graph, parameters, or seed changed since it
	// was written. Resuming from it would silently mix incompatible partial
	// work, so it is rejected instead.
	ErrStale = errors.New("checkpoint: stale (fingerprint mismatch)")
	// ErrCorrupt marks a checkpoint that fails structural validation or a
	// CRC32-C checksum.
	ErrCorrupt = errors.New("checkpoint: corrupt")
)

// Bitmap is a fixed-size completed-unit set.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an empty bitmap over n units.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of units.
func (b *Bitmap) Len() int { return b.n }

// Get reports whether unit i is marked. A nil Bitmap has no units marked.
func (b *Bitmap) Get(i int) bool { return b != nil && b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set marks unit i. Not synchronized; the Runner serializes access.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Count returns the number of marked units.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}

// State is a loaded checkpoint: which units were complete and the payload
// bytes the path-specific decoder turns back into partial accumulators.
type State struct {
	Done    *Bitmap
	Payload []byte
}

// EncodeUnits frames a checkpoint payload as one (uint32 unit id, record)
// entry per unit marked in done, in ascending id order; record writes unit
// i's partial accumulators.
func EncodeUnits(done *Bitmap, record func(w io.Writer, i int) error) ([]byte, error) {
	var buf bytes.Buffer
	for i := 0; i < done.Len(); i++ {
		if !done.Get(i) {
			continue
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint32(i)); err != nil {
			return nil, err
		}
		if err := record(&buf, i); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// DecodeUnits reads a payload framed by EncodeUnits, calling record to read
// each unit's accumulators. The CRC32-C checksums already vouch for the
// bytes, so these checks catch logic-level mismatches: an id outside the
// done bitmap, a done unit the payload lacks, or a record error is
// ErrCorrupt. what names the payload in error messages.
func DecodeUnits(st *State, what string, record func(r io.Reader, id int) error) error {
	br := bytes.NewReader(st.Payload)
	seen := 0
	for {
		var id uint32
		if err := binary.Read(br, binary.LittleEndian, &id); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("%w: %s payload: %v", ErrCorrupt, what, err)
		}
		if int(id) >= st.Done.Len() || !st.Done.Get(int(id)) {
			return fmt.Errorf("%w: %s payload names unit %d outside the done bitmap", ErrCorrupt, what, id)
		}
		if err := record(br, int(id)); err != nil {
			return fmt.Errorf("%w: %s payload unit %d: %v", ErrCorrupt, what, id, err)
		}
		seen++
	}
	if seen != st.Done.Count() {
		return fmt.Errorf("%w: %s payload covers %d units, bitmap records %d", ErrCorrupt, what, seen, st.Done.Count())
	}
	return nil
}

// Artifact is the checkpoint's container kind. A checkpoint in the retired
// SOICKP01 format fails as ErrCorrupt with a bad-magic error; the CLIs then
// discard it and start fresh.
var Artifact = &blockfile.Kind{
	Magic:   [8]byte{'S', 'O', 'I', 'C', 'K', 'P', '0', '2'},
	Name:    "checkpoint",
	Unit:    "block",
	Rebuild: "a fresh run of the command that wrote it",
	Layout: func(units uint32, dir []blockfile.BlockInfo) error {
		if len(dir) != 3 {
			return fmt.Errorf("%d blocks, want meta, bitmap and payload", len(dir))
		}
		if want := (uint64(units) + 7) / 8; uint64(dir[1].Len) != want {
			return fmt.Errorf("bitmap block is %d bytes, want %d for %d units", dir[1].Len, want, units)
		}
		return nil
	},
	Decoder: func(units uint32, _ []blockfile.BlockInfo) blockfile.Decoder { return new(decoded).decoder(units) },
}

const metaLen = 8 + 4

// decoded is a checkpoint file's content, before it is matched against a run.
type decoded struct {
	fp      uint64
	units   uint32
	done    *Bitmap
	payload []byte
}

// decoder returns the container decoder that fills f from the blocks of a
// checkpoint over units units.
func (f *decoded) decoder(units uint32) blockfile.Decoder {
	f.units = units
	count := -1 // the meta block's done count; -1 until it decodes
	return func(i int, data []byte) error {
		switch i {
		case 0:
			if len(data) != metaLen {
				return fmt.Errorf("meta block is %d bytes, want %d", len(data), metaLen)
			}
			f.fp = binary.LittleEndian.Uint64(data)
			count = int(binary.LittleEndian.Uint32(data[8:]))
		case 1:
			if f.done = bitmapFromBytes(data, int(units)); f.done == nil {
				return fmt.Errorf("bitmap has bits beyond unit count")
			}
			if count >= 0 && f.done.Count() != count {
				return fmt.Errorf("bitmap population %d != recorded %d", f.done.Count(), count)
			}
		default:
			f.payload = append([]byte(nil), data...)
		}
		return nil
	}
}

// Save writes a checkpoint atomically (temp file + rename + directory sync).
// payload holds the partial accumulators for the units marked in done.
func Save(path string, fingerprint uint64, done *Bitmap, payload []byte) error {
	if err := fault.Hit(fault.CheckpointFlush); err != nil {
		return err
	}
	meta := binary.LittleEndian.AppendUint64(nil, fingerprint)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(done.Count()))
	blocks := make([]blockfile.Block, 3)
	for i, b := range [][]byte{meta, bitmapBytes(done), payload} {
		blocks[i].Encode = func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		}
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := blockfile.Write(w, Artifact.Magic, uint32(done.Len()), blocks)
		return err
	})
}

// Load reads the checkpoint at path for a run with the given fingerprint and
// unit count. A missing file returns (nil, nil) — start fresh. A fingerprint
// or unit-count mismatch returns ErrStale; truncation, garbage, or a checksum
// mismatch returns ErrCorrupt.
func Load(path string, fingerprint uint64, units int) (*State, error) {
	if err := fault.Hit(fault.CheckpointLoad); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := Read(f, fingerprint, units)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// Read parses a checkpoint stream (see Load for the error contract). The
// whole file is verified before it is matched against the run.
func Read(r io.Reader, fingerprint uint64, units int) (*State, error) {
	var f decoded
	err := blockfile.Read(r, Artifact, func(n uint32, _ []blockfile.BlockInfo) (blockfile.Decoder, error) {
		return f.decoder(n), nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if f.fp != fingerprint {
		return nil, fmt.Errorf("%w: checkpoint written for fingerprint %016x, run has %016x", ErrStale, f.fp, fingerprint)
	}
	if int64(f.units) != int64(units) {
		return nil, fmt.Errorf("%w: checkpoint covers %d units, run has %d", ErrStale, f.units, units)
	}
	return &State{Done: f.done, Payload: f.payload}, nil
}

func bitmapBytes(b *Bitmap) []byte {
	out := make([]byte, (b.n+7)/8)
	for i, w := range b.words {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], w)
		copy(out[i*8:], tmp[:])
	}
	return out
}

// bitmapFromBytes rebuilds a bitmap, rejecting set bits at positions >= n.
func bitmapFromBytes(raw []byte, n int) *Bitmap {
	b := NewBitmap(n)
	for i, by := range raw {
		for j := 0; j < 8; j++ {
			if by&(1<<uint(j)) != 0 {
				pos := i*8 + j
				if pos >= n {
					return nil
				}
				b.Set(pos)
			}
		}
	}
	return b
}

// Remove deletes the checkpoint at path; a missing file is not an error.
func Remove(path string) error {
	err := os.Remove(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// Hasher accumulates a run fingerprint over the graph, the parameters, and
// the RNG seed. It is FNV-1a over the binary encoding of everything fed in,
// so any change to any input — an edge, a probability, a sample count, a
// seed — yields a different fingerprint and makes old checkpoints ErrStale.
type Hasher struct {
	h   interface{ Sum64() uint64 }
	w   io.Writer
	buf [8]byte
}

// NewHasher returns an empty fingerprint hasher.
func NewHasher() *Hasher {
	h := fnv.New64a()
	return &Hasher{h: h, w: h}
}

// Uint64 feeds one 64-bit value.
func (f *Hasher) Uint64(v uint64) *Hasher {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.w.Write(f.buf[:])
	return f
}

// Int feeds one integer.
func (f *Hasher) Int(v int) *Hasher { return f.Uint64(uint64(int64(v))) }

// Bool feeds one boolean.
func (f *Hasher) Bool(v bool) *Hasher {
	if v {
		return f.Uint64(1)
	}
	return f.Uint64(0)
}

// Float64 feeds one float (by bit pattern).
func (f *Hasher) Float64(v float64) *Hasher { return f.Uint64(math.Float64bits(v)) }

// String feeds a length-prefixed string.
func (f *Hasher) String(s string) *Hasher {
	f.Int(len(s))
	io.WriteString(f.w, s)
	return f
}

// Nodes feeds a node-id slice.
func (f *Hasher) Nodes(ids []graph.NodeID) *Hasher {
	f.Int(len(ids))
	for _, v := range ids {
		f.Uint64(uint64(int64(v)))
	}
	return f
}

// Graph feeds the full structure of g: node count, CSR adjacency, and every
// edge probability. Linear in |E|; a million-edge graph hashes in
// milliseconds, which is noise next to the compute being checkpointed.
func (f *Hasher) Graph(g *graph.Graph) *Hasher {
	f.Int(g.NumNodes())
	f.Int(g.NumEdges())
	var buf bytes.Buffer
	for u := 0; u < g.NumNodes(); u++ {
		lo, hi := g.EdgeRange(graph.NodeID(u))
		f.Int(int(hi - lo))
		buf.Reset()
		for i := lo; i < hi; i++ {
			binary.Write(&buf, binary.LittleEndian, int32(g.EdgeTo(i)))
			binary.Write(&buf, binary.LittleEndian, g.EdgeProb(i))
		}
		f.w.Write(buf.Bytes())
	}
	return f
}

// Sum returns the fingerprint.
func (f *Hasher) Sum() uint64 { return f.h.Sum64() }
