// Package jaccard implements Jaccard distance over sorted integer sets and
// the Jaccard-median algorithms the paper builds on (Chierichetti, Kumar,
// Pandey & Vassilvitskii, SODA 2010).
//
// A set is a strictly increasing []int32. All cascades produced by this
// library satisfy that representation, which makes the distance computations
// simple linear merges.
//
// Three median algorithms are provided:
//
//   - Exact: exhaustive search over subsets of the union universe. Only
//     feasible for tiny instances; used as ground truth in tests.
//   - Prefix: the practical algorithm of [CKPV10] §3.2 — order elements by
//     occurrence frequency and return the best frequency prefix. It achieves
//     a 1+O(ε) factor (ε = optimal cost) in Õ(k + Σ|S_i|) time and is the
//     algorithm the paper runs (§4).
//   - Majority: keep every element appearing in at least half the sets; cost
//     at most ε + O(ε^{3/2}) [CKPV10]. Used by the paper's argument that a
//     seed set's typical cascade contains the members' typical cascades.
package jaccard

import (
	"slices"
	"sort"
	"sync"
)

// Set is a strictly increasing slice of element ids.
type Set = []int32

// Distance returns the Jaccard distance d_J(a,b) = 1 - |a∩b| / |a∪b|.
// The distance of two empty sets is 0.
func Distance(a, b Set) float64 {
	return DistanceFromCounts(IntersectSize(a, b), len(a), len(b))
}

// DistanceFromCounts is the Jaccard distance of two sets given only |a∩b|,
// |a| and |b| — for callers that count the intersection some other way
// than a sorted merge. It is the formula Distance evaluates, so equal counts
// give equal bits.
func DistanceFromCounts(inter, sizeA, sizeB int) float64 {
	union := sizeA + sizeB - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// IntersectSize returns |a ∩ b| for sorted sets.
func IntersectSize(a, b Set) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnionSize returns |a ∪ b| for sorted sets.
func UnionSize(a, b Set) int {
	return len(a) + len(b) - IntersectSize(a, b)
}

// SymmDiffSize returns |a ⊕ b| for sorted sets.
func SymmDiffSize(a, b Set) int {
	return len(a) + len(b) - 2*IntersectSize(a, b)
}

// Union returns the sorted union of two sorted sets.
func Union(a, b Set) Set {
	out := make(Set, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Contains reports whether sorted set s contains v.
func Contains(s Set, v int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// IsSorted reports whether s is a valid Set (strictly increasing).
func IsSorted(s Set) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// MeanDistance returns the average Jaccard distance from candidate to the
// given sets (the empirical cost ρ̃ of the paper). It returns 0 for an empty
// collection.
func MeanDistance(candidate Set, sets []Set) float64 {
	if len(sets) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range sets {
		total += Distance(candidate, s)
	}
	return total / float64(len(sets))
}

// Median is the result of a median computation.
type Median struct {
	// Set is the selected median.
	Set Set
	// Cost is its average Jaccard distance to the input sets.
	Cost float64
	// Evals counts the candidate medians whose cost the algorithm evaluated
	// (prefixes for Prefix, subsets for Exact, toggles for Refine). Callers
	// aggregate it into telemetry; the algorithms themselves stay
	// dependency-free.
	Evals int
	// Delta is the cost improvement local refinement achieved over its
	// starting candidate; 0 for one-shot algorithms.
	Delta float64
}

// Prefix computes the frequency-prefix Jaccard median of sets.
//
// Elements are sorted by decreasing occurrence count (ties by id for
// determinism); the candidate medians are the m+1 prefixes of that order,
// whose costs are evaluated incrementally in O(k) per prefix. Total time
// O(Σ|S_i| + m·k + m log m) where m is the number of distinct elements and
// k = len(sets).
//
// Prefix flattens sets into a pooled Scratch and runs Scratch.Prefix, so
// the two agree bit for bit. Negative ids, and ids too sparse for dense
// counters (at or beyond both 2^20 and four times the total set size), are
// first ranked densely in id order, which changes neither the element order
// nor the result.
func Prefix(sets []Set) Median {
	s := prefixPool.Get().(*Scratch)
	defer prefixPool.Put(s)
	flat, off := s.flat[:0], append(s.off[:0], 0)
	for _, set := range sets {
		flat = append(flat, set...)
		off = append(off, len(flat))
	}
	s.flat, s.off = flat, off
	lo, hi := int32(0), int32(-1)
	for _, e := range flat {
		lo, hi = min(lo, e), max(hi, e)
	}
	if lo >= 0 && int(hi) < max(1<<20, 4*len(flat)) {
		return s.Prefix(flat, off)
	}
	ids := slices.Clone(flat)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for i, e := range flat {
		r, _ := slices.BinarySearch(ids, e)
		flat[i] = int32(r)
	}
	med := s.Prefix(flat, off)
	for i, r := range med.Set {
		med.Set[i] = ids[r]
	}
	return med
}

// prefixPool holds the scratches behind Prefix.
var prefixPool = sync.Pool{New: func() any { return new(Scratch) }}

// Scratch holds the reusable buffers of the prefix median. The zero value
// is ready to use; the per-element counters grow to the largest id seen.
// A Scratch is not safe for concurrent use.
type Scratch struct {
	count    []int32 // per element id: occurrences, then rank; all zero between calls
	distinct []int32 // distinct elements, in id order
	order    []int32 // distinct elements, by decreasing frequency
	hist     []int32 // per frequency: next slot in order
	occOff   []int32 // CSR offsets over ranks into occ
	cursor   []int32 // per rank: next free slot in occ
	occ      []int32 // indices of the sets containing each ranked element
	inter    []int32 // |C ∩ S_i| for the current prefix C
	sizes    []int32 // |S_i|
	flat     []int32 // Prefix's flattened input
	off      []int
}

// Prefix computes the frequency-prefix median of the k = len(off)-1 sets
// stored back to back in elems: set i is elems[off[i]:off[i+1]]. Ids must
// be non-negative and distinct within a set, but a set need not be sorted —
// the form index.FlatCascades extracts. The result, Cost bits and Evals
// included, is that of the package-level Prefix on the same sets.
//
// The counters are dense per id, the frequency order is a counting sort
// (frequencies are at most k), and the element-to-set incidence is a CSR,
// so a warmed Scratch allocates only the returned median.
func (s *Scratch) Prefix(elems []int32, off []int) Median {
	k := len(off) - 1
	if k <= 0 {
		return Median{Set: nil, Cost: 0}
	}
	all := elems[off[0]:off[k]]
	hi := int32(-1)
	for _, e := range all {
		hi = max(hi, e)
	}
	if int(hi) >= len(s.count) {
		s.count = make([]int32, hi+1)
	}
	count := s.count

	// Occurrence counts, and the distinct elements in id order.
	distinct := s.distinct[:0]
	for _, e := range all {
		if count[e] == 0 {
			distinct = append(distinct, e)
		}
		count[e]++
	}
	s.distinct = distinct
	m := len(distinct)
	if m == 0 {
		// All sets empty: the empty median is exact.
		return Median{Set: Set{}, Cost: 0, Evals: 1}
	}
	slices.Sort(distinct)

	// Counting sort by decreasing frequency. Placement is stable, so ids
	// stay ascending within a frequency.
	top := int32(0)
	for _, e := range distinct {
		top = max(top, count[e])
	}
	hist := grow(&s.hist, int(top)+1)
	clear(hist)
	for _, e := range distinct {
		hist[count[e]]++
	}
	next := int32(0)
	for f := top; f >= 1; f-- {
		next, hist[f] = next+hist[f], next
	}
	order := grow(&s.order, m)
	for _, e := range distinct {
		f := count[e]
		order[hist[f]] = e
		hist[f]++
	}

	// occ lists, rank by rank, the sets containing the rank-r element;
	// count[e] becomes e's rank.
	occOff := grow(&s.occOff, m+1)
	cursor := grow(&s.cursor, m)
	occOff[0] = 0
	for r, e := range order {
		cursor[r] = occOff[r]
		occOff[r+1] = occOff[r] + count[e]
		count[e] = int32(r)
	}
	occ := grow(&s.occ, int(occOff[m]))
	inter := grow(&s.inter, k)
	sizes := grow(&s.sizes, k)
	nonEmpty := 0
	for i := 0; i < k; i++ {
		set := elems[off[i]:off[i+1]]
		for _, e := range set {
			r := count[e]
			occ[cursor[r]] = int32(i)
			cursor[r]++
		}
		inter[i] = 0
		sizes[i] = int32(len(set))
		if len(set) > 0 {
			nonEmpty++
		}
	}
	for _, e := range distinct {
		count[e] = 0
	}

	// Cost of the empty prefix: distance 1 to each non-empty set.
	bestLen := 0
	bestCost := float64(nonEmpty) / float64(k)

	for pfx := 1; pfx <= m; pfx++ {
		for _, si := range occ[occOff[pfx-1]:occOff[pfx]] {
			inter[si]++
		}
		total := 0.0
		cLen := int32(pfx)
		for i := 0; i < k; i++ {
			union := cLen + sizes[i] - inter[i]
			// union >= cLen >= 1 here.
			total += 1 - float64(inter[i])/float64(union)
		}
		cost := total / float64(k)
		if cost < bestCost {
			bestCost = cost
			bestLen = pfx
		}
	}

	med := make(Set, bestLen)
	copy(med, order[:bestLen])
	slices.Sort(med)
	return Median{Set: med, Cost: bestCost, Evals: m + 1}
}

// grow returns (*buf)[:n], reallocating *buf when its capacity is short.
func grow(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Majority returns the elements present in at least a fraction theta of the
// sets (theta in (0,1]; the classical choice is 0.5), with its cost.
func Majority(sets []Set, theta float64) Median {
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
	need := int32(theta * float64(k))
	if float64(need) < theta*float64(k) {
		need++
	}
	if need < 1 {
		need = 1
	}
	med := make(Set, 0)
	for e, c := range counts {
		if c >= need {
			med = append(med, e)
		}
	}
	slices.Sort(med)
	return Median{Set: med, Cost: MeanDistance(med, sets), Evals: 1}
}

// Exact exhaustively searches all subsets of the union universe and returns
// a true optimal median. It panics if the universe exceeds 20 elements.
// Among equal-cost optima it returns the one whose element mask is smallest,
// making the result deterministic.
func Exact(sets []Set) Median {
	k := len(sets)
	if k == 0 {
		return Median{Set: nil, Cost: 0}
	}
	var universe Set
	for _, s := range sets {
		universe = Union(universe, s)
	}
	m := len(universe)
	if m > 20 {
		panic("jaccard: Exact universe too large")
	}
	// Precompute each input set as a bitmask over the universe.
	pos := make(map[int32]uint, m)
	for i, e := range universe {
		pos[e] = uint(i)
	}
	masks := make([]uint32, k)
	sizes := make([]int, k)
	for i, s := range sets {
		for _, e := range s {
			masks[i] |= 1 << pos[e]
		}
		sizes[i] = len(s)
	}
	bestMask := uint32(0)
	bestCost := 2.0
	for cand := uint32(0); cand < 1<<uint(m); cand++ {
		cLen := popcount(cand)
		total := 0.0
		for i := 0; i < k; i++ {
			inter := popcount(cand & masks[i])
			union := cLen + sizes[i] - inter
			if union > 0 {
				total += 1 - float64(inter)/float64(union)
			}
		}
		cost := total / float64(k)
		if cost < bestCost {
			bestCost = cost
			bestMask = cand
		}
	}
	med := make(Set, 0, popcount(bestMask))
	for i := 0; i < m; i++ {
		if bestMask&(1<<uint(i)) != 0 {
			med = append(med, universe[i])
		}
	}
	return Median{Set: med, Cost: bestCost, Evals: 1 << uint(m)}
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
