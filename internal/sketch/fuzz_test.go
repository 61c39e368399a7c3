package sketch

import (
	"bytes"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/graph"
)

// FuzzReadSketch feeds arbitrary bytes to the sketch reader: it must
// never panic or allocate unboundedly, and anything it accepts must be
// structurally sound — offsets monotone and in range, per-node rank lists
// strictly ascending and at most k long — so estimates computed from it
// cannot crash or silently drift. The seed corpus mutates every header
// field plus offsets, ranks, and the checksum footer, mirroring the index
// fuzz harness.
func FuzzReadSketch(f *testing.F) {
	var buf bytes.Buffer
	if _, err := testSketch(f).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	clean := buf.Bytes()
	f.Add(clean)
	mutate := func(pos int, val byte) {
		if pos < len(clean) {
			d := append([]byte(nil), clean...)
			d[pos] ^= val
			f.Add(d)
		}
	}
	meta := int(blockfile.BlocksStart(2)) // meta block, then one node range
	mutate(0, 0x01)                       // magic
	mutate(8, 0x01)                       // nodes
	mutate(12, 0xFF)                      // block count
	mutate(meta+0, 0xFF)                  // worlds
	mutate(meta+4, 0xFF)                  // live
	mutate(meta+8, 0x01)                  // k
	mutate(meta+12, 0xFF)                 // seed
	mutate(meta+20, 0xFF)                 // index fingerprint
	mutate(meta+28+8, 0x01)               // an interior CSR offset
	mutate(len(clean)/2, 0xFF)            // a rank byte
	mutate(len(clean)-1, 0xFF)            // checksum footer
	f.Add(clean[:meta+28+4])              // truncated in the offset table
	f.Add(clean[:len(clean)-4])
	f.Add(append(append([]byte(nil), clean...), 0)) // trailing byte
	f.Add([]byte("SOISKC01"))                       // retired format
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.K() < 2 {
			t.Fatalf("accepted sketch with k=%d", s.K())
		}
		for v := 0; v < s.Nodes(); v++ {
			ranks := s.NodeRanks(graph.NodeID(v))
			if len(ranks) > s.K() {
				t.Fatalf("node %d: %d ranks exceed k=%d", v, len(ranks), s.K())
			}
			for i := 1; i < len(ranks); i++ {
				if ranks[i] <= ranks[i-1] {
					t.Fatalf("node %d: accepted non-ascending ranks", v)
				}
			}
			_ = s.EstimateSphereSize(graph.NodeID(v))
		}
		_ = s.EstimateSpread(nil)
	})
}
