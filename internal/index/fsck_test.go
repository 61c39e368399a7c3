package index

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/graph"
)

// Fsck and RepairFile run the generic container verifier and repairer with
// the index kind, exactly as soifsck does for an index file.
func Fsck(path string) (*blockfile.Report, error) { return blockfile.Fsck(path, Artifact) }

func RepairFile(src, dst string) (*blockfile.Report, int, error) {
	return blockfile.Repair(src, dst, Artifact)
}

// fsckFixture serializes a fresh index to a temp file and returns the path,
// the raw bytes, and the directory for targeted corruption.
func fsckFixture(t *testing.T) (string, []byte, []blockfile.BlockInfo, *graph.Graph) {
	t.Helper()
	g := randomGraph(t, 161, 25, 90)
	x, err := Build(g, Options{Samples: 6, Seed: 162})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dir, err := blockfile.ParseDirectory(data[blockfile.HeaderLen:blockfile.HeaderLen+6*blockfile.EntrySize], 6)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "fsck.idx")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p, data, dir, g
}

func TestFsckCleanFile(t *testing.T) {
	p, _, _, _ := fsckFixture(t)
	rep, err := Fsck(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Bad() != 0 || !rep.FooterOK {
		t.Fatalf("clean file reported dirty: %+v", rep)
	}
	if rep.Format != "SOIIDX03" || rep.Kind != Artifact || rep.N != 25 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Blocks) != 6 {
		t.Fatalf("got %d block reports, want 6", len(rep.Blocks))
	}
}

func TestFsckReportsEveryBadBlock(t *testing.T) {
	p, data, dir, _ := fsckFixture(t)
	d := append([]byte(nil), data...)
	d[dir[1].Off+2] ^= 0xFF
	d[dir[4].Off+2] ^= 0xFF
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupt file reported clean")
	}
	if rep.Bad() != 2 {
		t.Fatalf("BadWorlds %d, want 2 (one pass must find both)", rep.Bad())
	}
	for _, w := range []int{1, 4} {
		if rep.Blocks[w].Err == nil {
			t.Fatalf("world %d not flagged", w)
		}
	}
	if rep.FooterOK {
		t.Fatal("whole-file footer cannot be ok with a corrupt block")
	}
}

func TestRepairFileDropsBadWorlds(t *testing.T) {
	p, data, dir, g := fsckFixture(t)
	d := append([]byte(nil), data...)
	d[dir[3].Off+5] ^= 0xFF
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "repaired.idx")
	rep, kept, err := RepairFile(p, out)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 5 || rep.Bad() != 1 {
		t.Fatalf("kept %d (bad %d), want 5 kept 1 bad", kept, rep.Bad())
	}
	// The repaired file is clean by both fsck and the strict eager reader.
	rep2, err := Fsck(out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() || len(rep2.Blocks) != 5 {
		t.Fatalf("repaired file not clean: %+v", rep2)
	}
	x, err := LoadFile(out, g)
	if err != nil {
		t.Fatalf("strict reader rejects repaired file: %v", err)
	}
	if x.NumWorlds() != 5 {
		t.Fatalf("repaired index has %d worlds, want 5", x.NumWorlds())
	}
}

func TestRepairFileRefusesTotalLoss(t *testing.T) {
	p, data, dir, _ := fsckFixture(t)
	d := append([]byte(nil), data...)
	for _, b := range dir {
		d[b.Off] ^= 0xFF
	}
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RepairFile(p, filepath.Join(t.TempDir(), "out.idx")); err == nil {
		t.Fatal("repairing a fully corrupt index must fail, not write an empty file")
	}
}

// TestFsckLegacyFormats: the retired v01/v02 formats have no block
// directory, so fsck reports them fatal with the rebuild command, and
// repair refuses them rather than salvaging a prefix.
func TestFsckLegacyFormats(t *testing.T) {
	g := randomGraph(t, 171, 25, 90)
	x, err := Build(g, Options{Samples: 6, Seed: 172})
	if err != nil {
		t.Fatal(err)
	}
	dirname := t.TempDir()
	for _, tc := range []struct {
		name   string
		magic  [8]byte
		footer bool
	}{{"v01", magicV1, false}, {"v02", magicV2, true}} {
		p := filepath.Join(dirname, tc.name+".idx")
		if err := os.WriteFile(p, writeLegacy(t, x, tc.magic, tc.footer), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() || rep.Fatal == nil || !strings.Contains(rep.Fatal.Error(), "rebuild with sphere -build-index") {
			t.Fatalf("%s: report %+v, want a fatal bad-magic error naming the rebuild command", tc.name, rep)
		}
		if _, _, err := RepairFile(p, filepath.Join(dirname, tc.name+"-fixed.idx")); err == nil {
			t.Fatalf("%s: repair of a retired format succeeded", tc.name)
		}
	}
}

// TestFsckFatalShapes: structural damage that prevents block-level
// verification entirely is reported as Fatal, never as a parse error.
func TestFsckFatalShapes(t *testing.T) {
	_, data, _, _ := fsckFixture(t)
	mangle := func(name string, f func(d []byte) []byte) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.idx")
		if err := os.WriteFile(p, f(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(p)
		if err != nil {
			t.Fatalf("%s: I/O error %v", name, err)
		}
		if rep.Fatal == nil {
			t.Fatalf("%s: no Fatal in report %+v", name, rep)
		}
		if rep.Clean() {
			t.Fatalf("%s: fatal report counts as clean", name)
		}
	}
	mangle("too short for a header", func(d []byte) []byte { return d[:10] })
	mangle("unrecognized magic", func(d []byte) []byte { copy(d, "SOIIDX99"); return d })
	mangle("zero node count", func(d []byte) []byte { copy(d[8:12], []byte{0, 0, 0, 0}); return d })
	mangle("implausible world count", func(d []byte) []byte { copy(d[12:16], []byte{255, 255, 255, 255}); return d })
	mangle("ends inside the directory", func(d []byte) []byte { return d[:blockfile.HeaderLen+blockfile.EntrySize] })
	mangle("directory checksum flip", func(d []byte) []byte { d[blockfile.HeaderLen] ^= 0xFF; return d })

	// A missing file is an I/O error, not a report.
	if rep, err := Fsck(filepath.Join(t.TempDir(), "nope.idx")); err == nil || rep != nil {
		t.Fatalf("missing file: rep %+v err %v, want nil report + error", rep, err)
	}
}
