package index

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"soi/internal/blockfile"
)

// FuzzRead feeds arbitrary bytes to the index deserializer: it must never
// panic or allocate unboundedly, and anything it accepts must answer
// queries without crashing.
func FuzzRead(f *testing.F) {
	g := randomGraph(f, 141, 12, 40)
	x, err := Build(g, Options{Samples: 2, Seed: 142})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())                       // valid container
	f.Add(writeLegacy(f, x, magicV1, false)) // retired v01: must be rejected
	v2 := writeLegacy(f, x, magicV2, true)
	f.Add(v2) // retired v02: must be rejected
	// v02 with a corrupted checksum footer.
	bad := append([]byte(nil), v2...)
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)
	f.Add([]byte("SOIIDX01"))
	f.Add([]byte("SOIIDX02"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := Read(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		s := idx.NewScratch()
		for i := 0; i < idx.NumWorlds(); i++ {
			_ = idx.Cascade(0, i, s, nil)
			_ = idx.CascadeSize(0, i, s)
		}
	})
}

// FuzzReadV03 hammers the block-directory paths specifically: the seed
// corpus mutates the directory (offsets, lengths, CRCs, comps), not just
// the payload, and every input is fed to both the strict eager reader and
// the lazy OpenMmap loader. Neither may panic; whatever OpenMmap accepts
// must answer queries with every world either served or quarantined.
func FuzzReadV03(f *testing.F) {
	g := randomGraph(f, 151, 12, 40)
	x, err := Build(g, Options{Samples: 3, Seed: 152})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
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
	// One seed per directory field of world 1 (offset, length, CRC, comps),
	// plus the directory CRC, a block byte, and the footer.
	dirBase := blockfile.HeaderLen + blockfile.EntrySize
	mutate(dirBase+0, 0x01)                                 // off
	mutate(dirBase+8, 0x01)                                 // len
	mutate(dirBase+12, 0x01)                                // crc
	mutate(dirBase+16, 0x01)                                // comps
	mutate(blockfile.HeaderLen+3*blockfile.EntrySize, 0xFF) // directory CRC word
	mutate(int(blockfile.BlocksStart(3))+5, 0xFF)           // first block's bytes
	mutate(len(clean)-1, 0xFF)                              // whole-file footer
	f.Add(clean[:blockfile.HeaderLen])                      // truncated at directory
	f.Add(clean[:int(blockfile.BlocksStart(3))+1])          // truncated mid-block
	f.Add(append(append([]byte(nil), clean...), 0))         // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, err := Read(bytes.NewReader(data), g); err == nil {
			s := idx.NewScratch()
			for i := 0; i < idx.NumWorlds(); i++ {
				_ = idx.Cascade(0, i, s, nil)
			}
		}
		p := filepath.Join(t.TempDir(), "fuzz.idx")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		idx, err := OpenMmap(p, g, MmapOptions{})
		if err != nil {
			return
		}
		defer idx.Close()
		s := idx.NewScratch()
		for i := 0; i < idx.NumWorlds(); i++ {
			_ = idx.Cascade(0, i, s, nil)
			_ = idx.CascadeSize(0, i, s)
		}
		if live, quar := idx.LiveWorlds(), idx.QuarantinedWorlds(); live+quar != idx.NumWorlds() {
			t.Fatalf("live %d + quarantined %d != worlds %d", live, quar, idx.NumWorlds())
		}
	})
}
