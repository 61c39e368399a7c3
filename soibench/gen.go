package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// picker draws node ids for one workload's requests.
type picker interface{ pick() int64 }

// uniformPicker walks a seeded permutation of the nodes, so every key is
// uniform and no key repeats until all have been used.
type uniformPicker struct {
	perm []int64
	pos  int
}

func (p *uniformPicker) pick() int64 {
	v := p.perm[p.pos%len(p.perm)]
	p.pos++
	return v
}

// zipfPicker draws ranks from a Zipf law over a seeded permutation of the
// nodes, so a few nodes are hot and the tail is long.
type zipfPicker struct {
	perm []int64
	z    *rand.Zipf
}

func (p *zipfPicker) pick() int64 { return p.perm[p.z.Uint64()] }

func newPicker(ws WorkloadSpec, nodes []int64, rng *rand.Rand) picker {
	perm := append([]int64(nil), nodes...)
	sort.Slice(perm, func(a, b int) bool { return perm[a] < perm[b] })
	rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	if ws.ZipfS > 1 {
		return &zipfPicker{perm: perm, z: rand.NewZipf(rng, ws.ZipfS, 1, uint64(len(perm)-1))}
	}
	return &uniformPicker{perm: perm}
}

// pickSet draws a seed set of set_min..set_max distinct nodes.
func pickSet(ws WorkloadSpec, p picker, rng *rand.Rand) []int64 {
	n := ws.SetMin + rng.Intn(ws.SetMax-ws.SetMin+1)
	seen := map[int64]bool{}
	var out []int64
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		if v := p.pick(); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func joinIDs(ids []int64) string {
	s := make([]string, len(ids))
	for i, id := range ids {
		s[i] = strconv.FormatInt(id, 10)
	}
	return strings.Join(s, ",")
}

// newRequest formats one request of the given kind.
func newRequest(kind string, seeds []int64, k int) Request {
	r := Request{Kind: kind, Seeds: seeds, K: k}
	switch kind {
	case "sphere-compute":
		r.Path = fmt.Sprintf("/v1/sphere/%d?source=compute", seeds[0])
	case "sphere-store":
		r.Path = fmt.Sprintf("/v1/sphere/%d?source=store", seeds[0])
	case "stability":
		r.Path = "/v1/stability?seeds=" + joinIDs(seeds)
	case "spread-index":
		r.Path = "/v1/spread?method=index&seeds=" + joinIDs(seeds)
	case "spread-sketch":
		r.Path = "/v1/spread?estimator=sketch&seeds=" + joinIDs(seeds)
	case "seeds-tc":
		r.Path = fmt.Sprintf("/v1/seeds?k=%d", k)
	case "seeds-sketch":
		r.Path = fmt.Sprintf("/v1/seeds?estimator=sketch&k=%d", k)
	default:
		panic("unknown request kind " + kind)
	}
	return r
}

// goldenFrac is the fractional part of the golden ratio.
const goldenFrac = 0.6180339887498949

// genRequests draws n requests from the workload's mix. With paired set,
// every drawn seed set is asked once of each kind in the mix, back to back,
// so the answers can be compared on the same query (build's sketch against
// dense).
func genRequests(ws WorkloadSpec, nodes []int64, n int, seed uint64, paired bool) []Request {
	rng := rand.New(rand.NewSource(int64(seed)))
	p := newPicker(ws, nodes, rng)
	var total float64
	for _, m := range ws.Mix {
		total += m.Weight
	}
	phase := rng.Float64()
	out := make([]Request, 0, n)
	for len(out) < n {
		if paired {
			set := pickSet(ws, p, rng)
			for _, m := range ws.Mix {
				out = append(out, newRequest(m.Kind, set, 0))
			}
			continue
		}
		// A golden-ratio sequence from a seeded start interleaves the kinds
		// with their shares exact to within a few requests, so runs on
		// different seeds carry the same mix of work.
		x := math.Mod(phase+float64(len(out))*goldenFrac, 1) * total
		kind := ws.Mix[len(ws.Mix)-1].Kind
		for _, m := range ws.Mix {
			if x < m.Weight {
				kind = m.Kind
				break
			}
			x -= m.Weight
		}
		switch kind {
		case "sphere-compute", "sphere-store":
			out = append(out, newRequest(kind, []int64{p.pick()}, 0))
		case "seeds-tc", "seeds-sketch":
			out = append(out, newRequest(kind, nil, ws.SeedsK[rng.Intn(len(ws.SeedsK))]))
		default:
			out = append(out, newRequest(kind, pickSet(ws, p, rng), 0))
		}
	}
	return out[:n]
}
