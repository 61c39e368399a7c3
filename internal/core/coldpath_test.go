package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/rng"
)

// The cold query path (flat cascade extraction, the dense prefix median,
// and mark-counted stability) must answer exactly as the sorted-cascade
// pipeline it replaced. The digests below were recorded from that pipeline;
// they cover every field a sphere carries except the timings.

// resultsDigest renders results exactly: each set, the bits of both costs,
// and the number of worlds the median was taken over.
func resultsDigest(rs []Result) string {
	var b bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&b, "%v|%v|%016x|%016x|%d;", r.Seeds, r.Set,
			math.Float64bits(r.SampleCost), math.Float64bits(r.ExpectedCost), r.Worlds)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// ltGraph is a random graph with LT-valid weights: every node's incoming
// weights sum to 0.9.
func ltGraph(t testing.TB, seed uint64, n int) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	type edge struct{ u, v graph.NodeID }
	var edges []edge
	indeg := make([]int, n)
	for i := 0; i < 3*n; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u != v {
			edges = append(edges, edge{u, v})
			indeg[v]++
		}
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.u, e.v, 0.9/float64(indeg[e.v]))
	}
	return b.MustBuild()
}

// quarantinedIndex writes x to a file, flips a byte inside world w's block,
// and reopens it through the mmap loader, which quarantines that world.
func quarantinedIndex(t *testing.T, g *graph.Graph, x *index.Index, w int) *index.Index {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d := buf.Bytes()
	n := int(binary.LittleEndian.Uint32(d[12:16]))
	dir, err := blockfile.ParseDirectory(d[16:16+blockfile.EntrySize*n], n)
	if err != nil {
		t.Fatal(err)
	}
	d[dir[w].Off+int64(dir[w].Len)/2] ^= 0xFF
	p := filepath.Join(t.TempDir(), "quarantined.idx")
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	mx, err := index.OpenMmap(p, g, index.MmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mx.Close() })
	return mx
}

func TestColdPathAnswersUnchanged(t *testing.T) {
	paper := paperGraph(t)
	px := buildIndex(t, paper, 400, 3)
	sparse := sparseGraph(t, 5, 300)
	sx, err := index.Build(sparse, index.Options{Samples: 64, Seed: 2, TransitiveReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	lt := ltGraph(t, 8, 120)
	lx, err := index.Build(lt, index.Options{Samples: 48, Seed: 4, Model: index.LT})
	if err != nil {
		t.Fatal(err)
	}
	mx := quarantinedIndex(t, sparse, sx, 2)

	fromSets := func(x *index.Index, opts Options, sets ...[]graph.NodeID) []Result {
		var out []Result
		for _, seeds := range sets {
			out = append(out, ComputeFromSet(x, seeds, opts))
		}
		return out
	}
	cases := []struct {
		name, want string
		got        func() []Result
	}{
		{"paper/from-set", "a2b8e09d858207b1a682e65fc65f88f2ba0e51dbca262e8c28cea74bf59a1970", func() []Result {
			return fromSets(px, Options{CostSamples: 300, CostSeed: 9},
				[]graph.NodeID{4}, []graph.NodeID{4, 3}, []graph.NodeID{0, 3}, []graph.NodeID{2}, nil)
		}},
		{"paper/other-medians", "d215efd904cd8f394b6654ab98f27d6d1c6965b0cfda3ec25f12e000d82a06cd", func() []Result {
			var out []Result
			for _, alg := range []MedianAlgorithm{MedianMajority, MedianExact, MedianPrefixRefined} {
				out = append(out, fromSets(px, Options{Algorithm: alg, CostSamples: 50, CostSeed: 1},
					[]graph.NodeID{4}, []graph.NodeID{0, 3})...)
			}
			return out
		}},
		{"sparse/compute-all", "185d9ac031a3eee6a628a33803bb7d35c94d2c816cb5e4a617e11b10df7b1b0b", func() []Result {
			return ComputeAll(sx, Options{CostSamples: 40, CostSeed: 7, Workers: 2})
		}},
		{"sparse/from-set", "0cf1c97ef0abdbe42d8ee534c80861939bedbda68e955e81a834352ffc528017", func() []Result {
			return fromSets(sx, Options{CostSamples: 60, CostSeed: 5},
				[]graph.NodeID{1, 2, 3}, []graph.NodeID{17, 17, 250}, []graph.NodeID{299})
		}},
		{"lt/compute-all", "98d3b5bb32dd38a337f5152edbd02517fd62d7f8e29c796c2edfcbfa0c282cc0", func() []Result {
			return ComputeAll(lx, Options{CostSamples: 30, CostSeed: 3, Model: index.LT, Workers: 2})
		}},
		{"mmap-quarantined/compute-all", "3ab308f5665043d793a4a3d1ec1c16477972e98070aa4af0b5e172a99f74af8a", func() []Result {
			return ComputeAll(mx, Options{CostSamples: 20, CostSeed: 7, Workers: 2})
		}},
		{"mmap-quarantined/from-set", "ca2ecf5d1b511769fd40879abee4bd530af11b14e7adb2709092614a5a09d3d0", func() []Result {
			return fromSets(mx, Options{CostSamples: 60, CostSeed: 5},
				[]graph.NodeID{1, 2, 3}, []graph.NodeID{42})
		}},
	}
	for _, tc := range cases {
		got := resultsDigest(tc.got())
		if got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
	for _, r := range ComputeAll(mx, Options{Workers: 2}) {
		if r.Worlds != sx.NumWorlds()-1 {
			t.Fatalf("node %v: median over %d worlds, want %d (one quarantined)", r.Seeds, r.Worlds, sx.NumWorlds()-1)
		}
	}
}
