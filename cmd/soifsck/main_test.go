package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/sketch"
)

// ringGraph is a ring with shortcuts — enough structure that every block
// is a few hundred bytes.
func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 0.8)
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+5)%n), 0.3)
	}
	return b.MustBuild()
}

func fsckGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return ringGraph(12)
}

func writeIndexFile(t *testing.T) string {
	t.Helper()
	x, err := index.Build(fsckGraph(t), index.Options{Samples: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "g.idx")
	if err := x.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// flipInBlock flips a byte in the middle of block i, locating it through
// the fsck report's directory geometry.
func flipInBlock(t *testing.T, path string, i int) {
	t.Helper()
	rep, err := blockfile.Fsck(path, kinds...)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Blocks[i]
	flipAt(t, path, b.Off+b.Len/2)
}

func flipAt(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// captureLog runs f with soifsck's log output captured.
func captureLog(t *testing.T, f func() int) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	code := f()
	return code, buf.String()
}

func TestCheckFileIndex(t *testing.T) {
	p := writeIndexFile(t)
	if code := checkFile(p, "", true); code != 0 {
		t.Fatalf("clean index: exit %d, want 0", code)
	}
	flipInBlock(t, p, 3)
	if code := checkFile(p, "", false); code != 1 {
		t.Fatalf("corrupt index: exit %d, want 1", code)
	}
	out := filepath.Join(t.TempDir(), "fixed.idx")
	if code := checkFile(p, out, false); code != 1 {
		t.Fatalf("repair of corrupt index: exit %d, want 1 (corruption was found)", code)
	}
	if code := checkFile(out, "", false); code != 0 {
		t.Fatalf("repaired index: exit %d, want 0", code)
	}
	rep, err := blockfile.Fsck(out, kinds...)
	if err != nil || !rep.Clean() || len(rep.Blocks) != 7 {
		t.Fatalf("repaired report %+v (err %v), want clean with 7 worlds", rep, err)
	}
}

func TestCheckFileIndexRepairTotalLoss(t *testing.T) {
	p := writeIndexFile(t)
	for w := 0; w < 8; w++ {
		flipInBlock(t, p, w)
	}
	out := filepath.Join(t.TempDir(), "fixed.idx")
	if code := checkFile(p, out, false); code != 2 {
		t.Fatalf("repair with zero survivors: exit %d, want 2", code)
	}
}

func TestCheckFileSpheres(t *testing.T) {
	g := fsckGraph(t)
	x, err := index.Build(g, index.Options{Samples: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spheres := core.ComputeAll(x, core.Options{CostSamples: 20, CostSeed: 6})
	p := filepath.Join(t.TempDir(), "g.spheres")
	if err := core.SaveSpheresFile(p, spheres); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", false); code != 0 {
		t.Fatalf("clean store: exit %d, want 0", code)
	}

	// Flip the trailing checksum footer: detectable and repairable.
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", false); code != 1 {
		t.Fatalf("corrupt store: exit %d, want 1", code)
	}
	out := filepath.Join(t.TempDir(), "fixed.spheres")
	if code := checkFile(p, out, false); code != 1 {
		t.Fatalf("repair of corrupt store: exit %d, want 1 (original was corrupt)", code)
	}
	if code := checkFile(out, "", false); code != 0 {
		t.Fatalf("repaired store: exit %d, want 0", code)
	}
	if code := checkFile(out, filepath.Join(t.TempDir(), "again.spheres"), false); code != 0 {
		t.Fatalf("repair of a clean store: exit %d, want 0", code)
	}

	// Header corruption is unrecoverable.
	data[8] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, out, false); code != 2 {
		t.Fatalf("repair of header-corrupt store: exit %d, want 2", code)
	}
}

func TestCheckFileUnusable(t *testing.T) {
	if code := checkFile(filepath.Join(t.TempDir(), "nope"), "", false); code != 2 {
		t.Fatalf("missing file: exit %d, want 2", code)
	}
	p := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(p, []byte("NOTANIDX-at-all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", false); code != 2 {
		t.Fatalf("unrecognized magic: exit %d, want 2", code)
	}
	// A retired format of a known kind names the command that rebuilds it.
	for magic, rebuild := range map[string]string{
		"SOIIDX02": "sphere -build-index",
		"SOISPH02": "sphere -all -store",
		"SOISKC01": "sphere -index FILE -sketch-out",
	} {
		if err := os.WriteFile(p, append([]byte(magic), make([]byte, 16)...), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := captureLog(t, func() int { return checkFile(p, "", false) })
		if code != 2 || !strings.Contains(out, "rebuild with "+rebuild) {
			t.Fatalf("%s: exit %d, log %q; want 2 and the rebuild command", magic, code, out)
		}
	}
}

// artifact is one clean file of each kind, plus what the corruption table
// needs to know about it.
type artifact struct {
	name  string
	kind  *blockfile.Kind
	bytes []byte
	load  func(path string) error // the kind's strict reader
}

// artifacts builds one file of every kind over the same ring graph: an
// index of 200 worlds, its sphere store and sketch (several node-range
// blocks each), and a checkpoint.
func artifacts(t testing.TB, nodes, worlds int) (*graph.Graph, []artifact) {
	t.Helper()
	g := ringGraph(nodes)
	x, err := index.Build(g, index.Options{Samples: worlds, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.Build(x, sketch.Options{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var idx, store, skb bytes.Buffer
	if _, err := x.WriteTo(&idx); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveSpheres(&store, core.ComputeAll(x, core.Options{})); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.WriteTo(&skb); err != nil {
		t.Fatal(err)
	}
	done := checkpoint.NewBitmap(100)
	for _, i := range []int{0, 7, 8, 63, 64, 99} {
		done.Set(i)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if err := checkpoint.Save(ckpt, ckptFP, done, []byte("partial accumulator bytes")); err != nil {
		t.Fatal(err)
	}
	ck, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return g, []artifact{
		{"index", index.Artifact, idx.Bytes(), func(p string) error { _, err := index.LoadFile(p, g); return err }},
		{"sphere store", core.SphereArtifact, store.Bytes(), func(p string) error { _, err := core.LoadSpheresFile(p); return err }},
		{"sketch", sketch.Artifact, skb.Bytes(), func(p string) error { _, err := sketch.LoadFile(p); return err }},
		{"checkpoint", checkpoint.Artifact, ck, func(p string) error { _, err := checkpoint.Load(p, ckptFP, 100); return err }},
	}
}

const ckptFP = 0x5EED

// TestCorruptionTable runs one corruption table over all four kinds: a clean
// file verifies, a byte flipped inside block 1 is reported against exactly
// that block, a flipped directory byte is fatal, and repair keeps every
// verified block — dropping a corrupt index world, and for the other kinds
// fixing footer damage while refusing block damage.
func TestCorruptionTable(t *testing.T) {
	_, arts := artifacts(t, 600, 200)
	for _, a := range arts {
		t.Run(a.name, func(t *testing.T) {
			dir := t.TempDir()
			fresh := func() string {
				p := filepath.Join(dir, "a.bin")
				if err := os.WriteFile(p, a.bytes, 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			}
			rep := blockfile.Verify(a.bytes, kinds...)
			if rep.Kind != a.kind || len(rep.Blocks) < 3 {
				t.Fatalf("fixture: kind %v with %d blocks, want %s with >= 3", rep.Kind, len(rep.Blocks), a.name)
			}

			p := fresh()
			if code := checkFile(p, "", false); code != 0 {
				t.Fatalf("clean file: exit %d, want 0", code)
			}

			flipInBlock(t, p, 1)
			code, out := captureLog(t, func() int { return checkFile(p, "", false) })
			if want := fmt.Sprintf("%s 1: off=", a.kind.Unit); code != 1 || !strings.Contains(out, want) ||
				strings.Count(out, "CORRUPT:") != 1 {
				t.Fatalf("flip in block 1: exit %d, log:\n%s\nwant exit 1 naming only %q", code, out, want)
			}
			if a.load(p) == nil {
				t.Fatal("strict reader accepted a corrupt block")
			}
			repaired := filepath.Join(dir, "fixed.bin")
			code, out = captureLog(t, func() int { return checkFile(p, repaired, false) })
			if a.kind.Droppable {
				want := fmt.Sprintf("kept %d of %d worlds", len(rep.Blocks)-1, len(rep.Blocks))
				if code != 1 || !strings.Contains(out, want) {
					t.Fatalf("repair: exit %d, log:\n%s\nwant exit 1 and %q", code, out, want)
				}
				if code := checkFile(repaired, "", false); code != 0 || a.load(repaired) != nil {
					t.Fatalf("repaired file: exit %d, strict load %v", code, a.load(repaired))
				}
			} else if code != 2 {
				t.Fatalf("repair of a corrupt block: exit %d, log:\n%s\nwant 2 (rebuild)", code, out)
			}

			p = fresh()
			flipAt(t, p, blockfile.HeaderLen+blockfile.EntrySize+4)
			if rep, _ := blockfile.Fsck(p, kinds...); rep.Fatal == nil || checkFile(p, "", false) != 1 {
				t.Fatalf("flipped directory byte: report %+v, want fatal and exit 1", rep)
			}

			for name, damage := range map[string]func(p string){
				"footer": func(p string) { flipAt(t, p, int64(len(a.bytes)-1)) },
				"trailing byte": func(p string) {
					if err := os.WriteFile(p, append(a.bytes[:len(a.bytes):len(a.bytes)], 0), 0o644); err != nil {
						t.Fatal(err)
					}
				},
			} {
				p = fresh()
				damage(p)
				if a.load(p) == nil {
					t.Fatalf("%s damage: strict reader accepted the file", name)
				}
				if code := checkFile(p, repaired, false); code != 1 {
					t.Fatalf("repair of %s damage: exit %d, want 1", name, code)
				}
				if code := checkFile(repaired, "", false); code != 0 {
					t.Fatalf("%s-repaired file: exit %d, want 0", name, code)
				}
				if err := a.load(repaired); err != nil {
					t.Fatalf("%s-repaired file does not load: %v", name, err)
				}
				if got, err := os.ReadFile(repaired); err != nil || !bytes.Equal(got, a.bytes) {
					t.Fatalf("%s repair did not reproduce the original bytes", name)
				}
			}
		})
	}
}
