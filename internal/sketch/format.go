package sketch

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/fault"
)

// On disk a sketch is a blockfile container (see internal/blockfile) with
// magic "SOISKC02" and the node count as its size word (little endian):
//
//	block 0   meta: worlds u32 (source index worlds, quarantined included),
//	          live u32 (worlds that contributed ranks), k u32,
//	          seed u64 (rank-hash seed), indexFP u64 (source index Fingerprint)
//	block 1+r node range r (blockfile.NodeRange), aux = its node count:
//	          off   [m+1]uint32  range-local CSR offsets, off[0] = 0,
//	                             non-decreasing, per-node count <= k
//	          ranks [off[m]]uint64 strictly ascending within each node
//
// A sketch is an estimator, so silent corruption would not crash — it
// would mis-estimate. The reader therefore validates everything it can
// structurally (offsets, per-node bounds, rank order) on top of the
// container's checksums: a corrupt file fails at open, never at query time.

// Artifact is the sketch's container kind. Sketches in the retired SOISKC01
// format fail with a bad-magic error naming the rebuild command.
var Artifact = &blockfile.Kind{
	Magic:   [8]byte{'S', 'O', 'I', 'S', 'K', 'C', '0', '2'},
	Name:    "sketch",
	Unit:    "block",
	Rebuild: "sphere -index FILE -sketch-out",
	Layout: func(n uint32, dir []blockfile.BlockInfo) error {
		if n > maxNodes {
			return fmt.Errorf("implausible node count %d", n)
		}
		return blockfile.CheckRanges(n, dir, 1)
	},
	Decoder: func(n uint32, dir []blockfile.BlockInfo) blockfile.Decoder { return new(Sketch).decoder(n, dir) },
}

// maxNodes mirrors the sphere store's plausibility cap.
const maxNodes = 1 << 28

const metaLen = 4 + 4 + 4 + 8 + 8

// WriteTo serializes the sketch as a SOISKC02 container.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	blocks := make([]blockfile.Block, 1+blockfile.Ranges(s.nodes))
	blocks[0] = blockfile.Block{Encode: func(w io.Writer) error {
		b := make([]byte, 0, metaLen)
		for _, u := range []int{s.worlds, s.live, s.k} {
			b = binary.LittleEndian.AppendUint32(b, uint32(u))
		}
		b = binary.LittleEndian.AppendUint64(b, s.seed)
		b = binary.LittleEndian.AppendUint64(b, s.fp)
		_, err := w.Write(b)
		return err
	}}
	for r := range blocks[1:] {
		lo, hi := blockfile.NodeRange(r, s.nodes)
		blocks[1+r] = blockfile.Block{Aux: uint32(hi - lo), Encode: func(w io.Writer) error { return s.encodeRange(w, lo, hi) }}
	}
	return blockfile.Write(w, Artifact.Magic, uint32(s.nodes), blocks)
}

// encodeRange writes the block of nodes [lo, hi): at most RangeNodes·k
// ranks, so it is built in memory and written at once.
func (s *Sketch) encodeRange(w io.Writer, lo, hi int) error {
	base := s.off[lo]
	b := make([]byte, 0, 4*(hi-lo+1)+8*int(s.off[hi]-base))
	for v := lo; v <= hi; v++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.off[v]-base))
	}
	for _, rk := range s.ranks[base:s.off[hi]] {
		b = binary.LittleEndian.AppendUint64(b, rk)
	}
	_, err := w.Write(b)
	return err
}

// decoder returns the container decoder that fills s from the blocks of an
// n-node sketch: the meta block first, then the node ranges in order.
func (s *Sketch) decoder(n uint32, dir []blockfile.BlockInfo) blockfile.Decoder {
	s.nodes = int(n)
	s.off = make([]int32, 1, min(n+1, 1<<16))
	// Size the rank array from the directory, so decoding does not leave a
	// trail of grown copies behind; the cap bounds what a forged directory
	// can make a streaming read allocate before its blocks fail to arrive.
	var total int64
	for _, b := range dir[1:] {
		total += (int64(b.Len) - 4*(int64(b.Aux)+1)) / 8
	}
	s.ranks = make([]uint64, 0, max(0, min(total, 1<<20)))
	return func(i int, data []byte) error {
		if i == 0 {
			return s.decodeMeta(data)
		}
		lo, hi := blockfile.NodeRange(i-1, s.nodes)
		return s.decodeRange(data, hi-lo)
	}
}

func (s *Sketch) decodeMeta(data []byte) error {
	if len(data) != metaLen {
		return fmt.Errorf("meta block is %d bytes, want %d", len(data), metaLen)
	}
	le := binary.LittleEndian
	worlds, live, k := le.Uint32(data), le.Uint32(data[4:]), le.Uint32(data[8:])
	if live > worlds {
		return fmt.Errorf("live worlds %d exceed total %d", live, worlds)
	}
	if k < 2 {
		return fmt.Errorf("k %d below minimum 2", k)
	}
	s.worlds, s.live, s.k = int(worlds), int(live), int(k)
	s.seed, s.fp = le.Uint64(data[12:]), le.Uint64(data[20:])
	return nil
}

// decodeRange validates one node-range block of m nodes and appends it to
// the CSR. The per-node bound is checked against k when the meta block was
// readable (fsck decodes the ranges of a file whose meta block is corrupt).
func (s *Sketch) decodeRange(data []byte, m int) error {
	if len(data) < 4*(m+1) {
		return fmt.Errorf("block is %d bytes, too short for %d offsets", len(data), m+1)
	}
	le := binary.LittleEndian
	if o := le.Uint32(data); o != 0 {
		return fmt.Errorf("first offset %d, want 0", o)
	}
	base := int64(s.off[len(s.off)-1])
	var prev uint32
	for j := 1; j <= m; j++ {
		o := le.Uint32(data[4*j:])
		if o < prev {
			return fmt.Errorf("offsets not monotone at node %d of the range", j)
		}
		if s.k > 0 && o-prev > uint32(s.k) {
			return fmt.Errorf("node %d of the range holds %d ranks, more than k=%d", j-1, o-prev, s.k)
		}
		if base+int64(o) > math.MaxInt32 {
			return fmt.Errorf("offset %d overflows", base+int64(o))
		}
		prev = o
	}
	ranks := data[4*(m+1):]
	if uint64(len(ranks)) != 8*uint64(prev) {
		return fmt.Errorf("block holds %d rank bytes, offsets promise %d", len(ranks), 8*uint64(prev))
	}
	for j := 0; j < m; j++ {
		from, to := le.Uint32(data[4*j:]), le.Uint32(data[4*j+4:])
		for i := from; i < to; i++ {
			rk := le.Uint64(ranks[8*i:])
			if i > from && rk <= s.ranks[len(s.ranks)-1] {
				return fmt.Errorf("node %d of the range: ranks not strictly ascending", j)
			}
			s.ranks = append(s.ranks, rk)
		}
		s.off = append(s.off, int32(base)+int32(to))
	}
	return nil
}

// Read deserializes a sketch, verifying the container checksums and the
// sketch's structure. The loaded sketch carries no telemetry; attach one
// with SetTelemetry.
func Read(r io.Reader) (*Sketch, error) {
	s := new(Sketch)
	err := blockfile.Read(r, Artifact, func(n uint32, dir []blockfile.BlockInfo) (blockfile.Decoder, error) {
		return s.decoder(n, dir), nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// SaveFile writes the sketch to path atomically (temp file + rename +
// directory sync), so an interrupted save never leaves a truncated sketch.
func (s *Sketch) SaveFile(path string) error {
	if err := fault.Hit(fault.SketchSave); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// LoadFile reads a sketch from path.
func LoadFile(path string) (*Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
