package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/sketch"
)

// FuzzArtifact is the one fuzz target for every on-disk artifact. Each
// input runs through soifsck's verify path and through every kind's strict
// reader (plus OpenMmap for indexes). Nothing may panic or allocate
// unboundedly, and:
//
//   - a file a strict reader accepts verifies clean as that kind;
//   - an accepted index answers Cascade/CascadeSize for every world, and an
//     mmap-opened one accounts every world as live or quarantined;
//   - an accepted sphere store has one sphere per node, each a strictly
//     ascending set of in-range ids;
//   - an accepted sketch has k >= 2, per-node rank lists of at most k
//     strictly ascending ranks, and estimates without panicking;
//   - an accepted checkpoint has units units and population <= units.
//
// The seeds are a valid, truncated, bit-flipped and trailing-byte file of
// each kind.
func FuzzArtifact(f *testing.F) {
	g, arts := artifacts(f, 12, 3)
	for _, a := range arts {
		d := a.bytes
		f.Add(d)
		f.Add(d[:len(d)/2])
		flipped := append([]byte(nil), d...)
		flipped[len(d)/2] ^= 0x10
		f.Add(flipped)
		f.Add(append(append([]byte(nil), d...), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep := blockfile.Verify(data, kinds...)
		accepted := func(k *blockfile.Kind) {
			t.Helper()
			if rep.Kind != k || !rep.Clean() {
				t.Fatalf("%s strict reader accepted a file fsck reports as %+v", k.Name, rep)
			}
		}
		if x, err := index.Read(bytes.NewReader(data), g); err == nil {
			accepted(index.Artifact)
			queryAll(x)
		}
		if x := openMmap(t, data, g); x != nil {
			defer x.Close()
			queryAll(x)
			if live, quar := x.LiveWorlds(), x.QuarantinedWorlds(); live+quar != x.NumWorlds() {
				t.Fatalf("live %d + quarantined %d != worlds %d", live, quar, x.NumWorlds())
			}
		}
		if rs, err := core.LoadSpheres(bytes.NewReader(data)); err == nil {
			accepted(core.SphereArtifact)
			checkSpheres(t, rs)
		}
		if s, err := sketch.Read(bytes.NewReader(data)); err == nil {
			accepted(sketch.Artifact)
			checkSketch(t, s)
		}
		if st, err := checkpoint.Read(bytes.NewReader(data), ckptFP, 100); err == nil {
			accepted(checkpoint.Artifact)
			if st.Done.Len() != 100 || st.Done.Count() > 100 {
				t.Fatalf("accepted checkpoint with %d units, population %d; want 100 units", st.Done.Len(), st.Done.Count())
			}
		}
	})
}

func openMmap(t *testing.T, data []byte, g *graph.Graph) *index.Index {
	p := filepath.Join(t.TempDir(), "fuzz.idx")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := index.OpenMmap(p, g, index.MmapOptions{})
	if err != nil {
		return nil
	}
	return x
}

func queryAll(x *index.Index) {
	s := x.NewScratch()
	for i := 0; i < x.NumWorlds(); i++ {
		_ = x.Cascade(0, i, s, nil)
		_ = x.CascadeSize(0, i, s)
	}
}

func checkSpheres(t *testing.T, rs []core.Result) {
	for v, r := range rs {
		if len(r.Seeds) != 1 || r.Seeds[0] != graph.NodeID(v) {
			t.Fatalf("sphere %d has seeds %v", v, r.Seeds)
		}
		for j, m := range r.Set {
			if m < 0 || int(m) >= len(rs) || (j > 0 && m <= r.Set[j-1]) {
				t.Fatalf("sphere %d: accepted unsorted or out-of-range set %v", v, r.Set)
			}
		}
	}
}

func checkSketch(t *testing.T, s *sketch.Sketch) {
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
}
