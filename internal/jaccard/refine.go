package jaccard

import "slices"

// Refine improves a candidate median by steepest-descent local search over
// single-element toggles: at each sweep it evaluates, for every element of
// the universe, the exact cost change of adding/removing that element, and
// applies the best improving toggle until a local optimum (or maxSweeps) is
// reached.
//
// The Chierichetti et al. PTAS is "mostly of theoretical interest" (paper
// §4); 1-swap local search is the practical way to squeeze out the gap the
// frequency-prefix algorithm leaves. Each sweep costs O(m·k) where m is the
// universe size and k the number of sets — the same order as Prefix itself.
//
// maxSweeps <= 0 selects a default of 2·m toggles' worth of sweeps capped at
// 64. The returned median's Cost is exact for the returned set.
func Refine(sets []Set, start Set, maxSweeps int) Median {
	k := len(sets)
	if k == 0 {
		return Median{Set: append(Set(nil), start...), Cost: 0}
	}
	if maxSweeps <= 0 {
		maxSweeps = 64
	}

	// Universe and membership structures.
	counts := make(map[int32]int32)
	for _, s := range sets {
		for _, e := range s {
			counts[e]++
		}
	}
	for _, e := range start {
		if _, ok := counts[e]; !ok {
			counts[e] = 0 // allow refining away elements outside the union
		}
	}
	universe := make([]int32, 0, len(counts))
	for e := range counts {
		universe = append(universe, e)
	}
	slices.Sort(universe)
	rank := make(map[int32]int32, len(universe))
	for i, e := range universe {
		rank[e] = int32(i)
	}
	m := len(universe)
	// occ[r] lists the set indices containing the rank-r element.
	occ := make([][]int32, m)
	for si, s := range sets {
		for _, e := range s {
			r := rank[e]
			occ[r] = append(occ[r], int32(si))
		}
	}

	inC := make([]bool, m)
	inter := make([]int32, k) // |C ∩ S_i|
	sizes := make([]int32, k)
	for i, s := range sets {
		sizes[i] = int32(len(s))
	}
	cLen := int32(0)
	for _, e := range start {
		r := rank[e]
		if inC[r] {
			continue
		}
		inC[r] = true
		cLen++
		for _, si := range occ[r] {
			inter[si]++
		}
	}

	cost := func(cl int32, itr []int32) float64 {
		total := 0.0
		for i := 0; i < k; i++ {
			union := cl + sizes[i] - itr[i]
			if union > 0 {
				total += 1 - float64(itr[i])/float64(union)
			}
		}
		return total / float64(k)
	}

	cur := cost(cLen, inter)
	startCost := cur
	evals := 0
	scratch := make([]int32, k)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		evals += m
		bestDelta := 0.0
		bestElem := -1
		for r := 0; r < m; r++ {
			// Evaluate the toggle of universe[r] exactly.
			copy(scratch, inter)
			nl := cLen
			if inC[r] {
				nl--
				for _, si := range occ[r] {
					scratch[si]--
				}
			} else {
				nl++
				for _, si := range occ[r] {
					scratch[si]++
				}
			}
			if delta := cost(nl, scratch) - cur; delta < bestDelta-1e-15 {
				bestDelta = delta
				bestElem = r
			}
		}
		if bestElem < 0 {
			break // local optimum
		}
		r := bestElem
		if inC[r] {
			inC[r] = false
			cLen--
			for _, si := range occ[r] {
				inter[si]--
			}
		} else {
			inC[r] = true
			cLen++
			for _, si := range occ[r] {
				inter[si]++
			}
		}
		cur += bestDelta
	}

	out := make(Set, 0, cLen)
	for r, in := range inC {
		if in {
			out = append(out, universe[r])
		}
	}
	final := cost(cLen, inter)
	return Median{Set: out, Cost: final, Evals: evals, Delta: startCost - final}
}

// PrefixRefined runs Prefix and then polishes its output with Refine.
func PrefixRefined(sets []Set) Median {
	p := Prefix(sets)
	med := Refine(sets, p.Set, 0)
	med.Evals += p.Evals
	return med
}
