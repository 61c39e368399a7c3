package soi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/sketch"
)

// The golden parity test pins, bit for bit, what the long-running
// computations produce for fixed seeds on a small generated graph. Each
// computation is run twice — through its context-free entry point and
// through its checkpointed entry point with a zero checkpoint.Config — and
// both runs must match the pinned value. A zero Config promises the plain
// run, so any drift between the two entry points, or any change to the
// sampling order, the worker split or an estimator, fails here.

// goldenFixture is the shared input: a 300-node Barabási–Albert graph under
// weighted-cascade probabilities.
func goldenFixture(t *testing.T) *Graph {
	t.Helper()
	topo, err := Generate(GenConfig{Model: "ba", N: 300, M: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	g, err := WeightedCascade(topo)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// selectionDigest renders a selection exactly: seeds, the bits of every
// gain, and the evaluation count.
func selectionDigest(sel Selection) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%v|", sel.Seeds)
	for _, g := range sel.Gains {
		fmt.Fprintf(&b, "%016x,", math.Float64bits(g))
	}
	fmt.Fprintf(&b, "|%d", sel.LazyEvaluations)
	return sha(b.Bytes())
}

// spheresDigest renders sphere-store results exactly — node, set, and the
// bits of both costs — so the pin covers what the sweep computed and the
// store round-trips, not the store's byte framing.
func spheresDigest(rs []core.Result) string {
	var b bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&b, "%d:%v|%016x|%016x;", r.Seeds[0], r.Set, math.Float64bits(r.SampleCost), math.Float64bits(r.ExpectedCost))
	}
	return sha(b.Bytes())
}

func TestGoldenParity(t *testing.T) {
	const (
		wantIndexSHA   = "8fd68cc4a7d4b21f2b8b5d21a5c56e8a3665c90ec05d2136382102a855849897"
		wantIndexFP    = uint64(0x839932599229b6db)
		wantSpheres    = "963997771e443de20736ed81577baa443378d0be1d76f22eb1376ff792b8385d"
		wantSpreadBits = uint64(0x400a083126e978d5) // 3.254
		wantRRSeeds    = "[261 250 296 280 277]"
		wantRR         = "6ab6110d19e26e8a56ee115f597a8fa31d0eeb0923ce391d706ccede6e03e84c"
		wantTC         = "bbdada928276ffced43b04cfc1d2ed6dbaf1de5981144fb49c778c11b40de506"
		wantSketch     = "6c4c72fd0aa4e5a3c59dceb0705673818f6a29e947f62dc57802607a6990a446"
	)
	ctx := context.Background()
	g := goldenFixture(t)

	// Index build (the paper's Algorithm 1 over ℓ sampled worlds).
	iopts := index.Options{Samples: 48, Seed: 5, TransitiveReduction: true, Workers: 2}
	x, err := index.Build(g, iopts)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := index.BuildResumable(ctx, g, iopts, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]*Index{"Build": x, "BuildResumable": xr} {
		if got := sha(indexBytes(t, idx)); got != wantIndexSHA {
			t.Errorf("index.%s bytes sha256 = %s, want %s", name, got, wantIndexSHA)
		}
		if got := idx.Fingerprint(); got != wantIndexFP {
			t.Errorf("index.%s Fingerprint = %#x, want %#x", name, got, wantIndexFP)
		}
	}

	// All-nodes typical-cascade sweep (Algorithm 2), with held-out costs.
	copts := core.Options{CostSamples: 16, CostSeed: 9, Workers: 2}
	all := core.ComputeAll(x, copts)
	allR, err := core.ComputeAllResumable(ctx, x, copts, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string][]core.Result{"ComputeAll": all, "ComputeAllResumable": allR} {
		var buf bytes.Buffer
		if err := core.SaveSpheres(&buf, res); err != nil {
			t.Fatal(err)
		}
		stored, err := core.LoadSpheres(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := spheresDigest(stored); got != wantSpheres {
			t.Errorf("core.%s stored spheres digest = %s, want %s", name, got, wantSpheres)
		}
	}

	// Monte Carlo spread.
	seeds := []NodeID{0, 7, 19}
	spread := cascade.ExpectedSpread(g, seeds, 500, 13, 2)
	spreadR, err := cascade.ExpectedSpreadResumable(ctx, g, seeds, 500, 13, 2, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{"ExpectedSpread": spread, "ExpectedSpreadResumable": spreadR} {
		if got := math.Float64bits(v); got != wantSpreadBits {
			t.Errorf("cascade.%s = %v (bits %#x), want bits %#x", name, v, got, wantSpreadBits)
		}
	}

	// RR-set seed selection.
	ropts := infmax.RROptions{Sets: 3000, Seed: 17}
	rr, err := infmax.RR(g, 5, ropts)
	if err != nil {
		t.Fatal(err)
	}
	rrR, err := infmax.RRResumable(ctx, g, 5, ropts, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, sel := range map[string]Selection{"RR": rr, "RRResumable": rrR} {
		if got := fmt.Sprint(sel.Seeds); got != wantRRSeeds {
			t.Errorf("infmax.%s seeds = %s, want %s", name, got, wantRRSeeds)
		}
		if got := selectionDigest(sel); got != wantRR {
			t.Errorf("infmax.%s selection digest = %s, want %s", name, got, wantRR)
		}
	}

	// InfMax_TC over the spheres (Algorithm 3) and SKIM over a sketch.
	tc, err := infmax.TC(ctx, g, SpheresOf(all), 5, infmax.TCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := selectionDigest(tc); got != wantTC {
		t.Errorf("infmax.TC selection %v digest = %s, want %s", tc.Seeds, got, wantTC)
	}
	sk, err := sketch.Build(x, sketch.Options{K: 16, Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sks, err := infmax.SelectSeedsSketch(sk, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := selectionDigest(sks); got != wantSketch {
		t.Errorf("infmax.SelectSeedsSketch selection %v digest = %s, want %s", sks.Seeds, got, wantSketch)
	}
}
