package jaccard

import (
	"math"
	"slices"
	"sort"
	"testing"

	"soi/internal/rng"
)

// referencePrefix is the map-based frequency-prefix median the flat kernel
// replaced, kept verbatim as the oracle the kernel must match bit for bit.
func referencePrefix(sets []Set) Median {
	k := len(sets)
	if k == 0 {
		return Median{Set: nil, Cost: 0}
	}
	counts := make(map[int32]int32)
	for _, s := range sets {
		for _, e := range s {
			counts[e]++
		}
	}
	m := len(counts)
	if m == 0 {
		return Median{Set: Set{}, Cost: 0, Evals: 1}
	}
	elems := make([]int32, 0, m)
	for e := range counts {
		elems = append(elems, e)
	}
	sort.Slice(elems, func(i, j int) bool {
		if counts[elems[i]] != counts[elems[j]] {
			return counts[elems[i]] > counts[elems[j]]
		}
		return elems[i] < elems[j]
	})
	rank := make(map[int32]int32, m)
	for i, e := range elems {
		rank[e] = int32(i)
	}
	occ := make([][]int32, m)
	for si, s := range sets {
		for _, e := range s {
			r := rank[e]
			occ[r] = append(occ[r], int32(si))
		}
	}
	inter := make([]int32, k)
	sizes := make([]int32, k)
	nonEmpty := 0
	for i, s := range sets {
		sizes[i] = int32(len(s))
		if len(s) > 0 {
			nonEmpty++
		}
	}
	bestLen := 0
	bestCost := float64(nonEmpty) / float64(k)
	for pfx := 1; pfx <= m; pfx++ {
		for _, si := range occ[pfx-1] {
			inter[si]++
		}
		total := 0.0
		cLen := int32(pfx)
		for i := 0; i < k; i++ {
			union := cLen + sizes[i] - inter[i]
			total += 1 - float64(inter[i])/float64(union)
		}
		cost := total / float64(k)
		if cost < bestCost {
			bestCost = cost
			bestLen = pfx
		}
	}
	med := make(Set, bestLen)
	copy(med, elems[:bestLen])
	sort.Slice(med, func(i, j int) bool { return med[i] < med[j] })
	return Median{Set: med, Cost: bestCost, Evals: m + 1}
}

// sameMedian reports whether two medians agree exactly: the same set (nil
// and empty told apart), the same cost bits and the same evaluation count.
func sameMedian(a, b Median) bool {
	return slices.Equal(a.Set, b.Set) && (a.Set == nil) == (b.Set == nil) &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost) && a.Evals == b.Evals
}

// prefixFixture draws one random collection for the bit-identity property.
// The shapes cover the kernel's edge cases: no sets, k = 1, empty sets,
// heavy frequency ties (a universe smaller than the set sizes), and sparse
// large or negative ids that force Prefix to rank ids before counting.
func prefixFixture(r *rng.PCG32, shape int) []Set {
	switch shape {
	case 0:
		return nil
	case 1:
		return randomSets(r, 1, 40, 12)
	case 2:
		sets := randomSets(r, 1+r.Intn(8), 30, 6)
		for i := range sets {
			if r.Bernoulli(0.5) {
				sets[i] = Set{}
			}
		}
		return sets
	case 3:
		return randomSets(r, 2+r.Intn(40), 6, 5) // ties everywhere
	case 4:
		sets := randomSets(r, 2+r.Intn(30), 50, 20)
		for _, s := range sets {
			for j := range s {
				s[j] = s[j]*40_000_000 - 1_000_000_000 // sparse, some negative
			}
		}
		return sets
	case 5:
		sets := randomSets(r, 2+r.Intn(30), 50, 20)
		for _, s := range sets {
			for j := range s {
				s[j] += math.MaxInt32 - 50 // dense in range, huge ids
			}
		}
		return sets
	default:
		universe := 1 + r.Intn(400)
		return randomSets(r, 1+r.Intn(120), universe, r.Intn(min(universe, 80)+1))
	}
}

// TestPrefixMatchesReference holds the flat kernel to the map-based
// reference, bitwise, through both entry points: Prefix on sorted sets and
// Scratch.Prefix on the same sets flattened with each set shuffled (one
// Scratch reused throughout, so stale counters would show).
func TestPrefixMatchesReference(t *testing.T) {
	r := rng.New(2024)
	var sc Scratch
	for trial := 0; trial < 1500; trial++ {
		shape := trial % 7
		sets := prefixFixture(r, shape)
		want := referencePrefix(sets)
		if got := Prefix(sets); !sameMedian(got, want) {
			t.Fatalf("trial %d (shape %d): Prefix = %+v, reference = %+v", trial, shape, got, want)
		}
		if shape == 4 || shape == 5 {
			continue // Scratch.Prefix takes dense non-negative ids only
		}
		var flat []int32
		off := []int{0}
		for _, s := range sets {
			start := len(flat)
			flat = append(flat, s...)
			r.Shuffle(len(s), func(i, j int) { flat[start+i], flat[start+j] = flat[start+j], flat[start+i] })
			off = append(off, len(flat))
		}
		if got := sc.Prefix(flat, off); !sameMedian(got, want) {
			t.Fatalf("trial %d (shape %d): Scratch.Prefix = %+v, reference = %+v", trial, shape, got, want)
		}
	}
	for e, c := range sc.count {
		if c != 0 {
			t.Fatalf("count[%d] = %d left behind", e, c)
		}
	}
}

// TestScratchPrefixOffsetWindow runs the kernel on a window of a larger
// arena (off[0] > 0), the way a caller reusing one buffer would.
func TestScratchPrefixOffsetWindow(t *testing.T) {
	sets := []Set{{3, 1}, {1, 2}, {1}}
	flat := []int32{99, 98, 3, 1, 1, 2, 1, 97}
	off := []int{2, 4, 6, 7}
	var sc Scratch
	want := referencePrefix([]Set{{1, 3}, {1, 2}, {1}})
	if got := sc.Prefix(flat, off); !sameMedian(got, want) {
		t.Fatalf("window median %+v, want %+v (sets %v)", got, want, sets)
	}
}

// TestScratchPrefixAllocs pins the kernel's allocation profile: on a warmed
// Scratch only the returned median is allocated.
func TestScratchPrefixAllocs(t *testing.T) {
	r := rng.New(5)
	sets := randomSets(r, 200, 300, 40)
	var flat []int32
	off := []int{0}
	for _, s := range sets {
		flat = append(flat, s...)
		off = append(off, len(flat))
	}
	var sc Scratch
	sc.Prefix(flat, off)
	if n := testing.AllocsPerRun(20, func() { sc.Prefix(flat, off) }); n > 1 {
		t.Fatalf("warmed Scratch.Prefix made %v allocations, want at most 1", n)
	}
}
