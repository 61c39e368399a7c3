package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"soi/internal/cascade"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
)

// answer holds the response fields any checked endpoint returns.
type answer struct {
	Sphere     []int64   `json:"sphere"`
	Set        []int64   `json:"set"`
	SampleCost float64   `json:"sample_cost"`
	Spread     float64   `json:"spread"`
	ErrorBound float64   `json:"error_bound"`
	Seeds      []int64   `json:"seeds"`
	Gains      []float64 `json:"gains"`
	Objective  float64   `json:"objective"`
	Stability  *float64  `json:"stability"`
}

// failures counts failed requests by cause.
type failures map[string]int

func (f failures) add(cause string) { f[cause]++ }

func (f failures) total() int {
	n := 0
	for _, c := range f {
		n += c
	}
	return n
}

func (f failures) String() string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("  %6d  %s\n", f[k], k)
	}
	return s
}

// checker recomputes a request's answer from the in-memory artifacts.
type checker func(r Request, a *answer) error

// checkAll classifies every outcome: transport errors, non-2xx statuses
// and answers that differ from the recomputed ones are failures.
func checkAll(outs []Outcome, reqs []Request, chk checker, fails failures) {
	for i := range outs {
		o := &outs[i]
		switch {
		case o.Err != nil:
			fails.add(reqs[i].Kind + ": transport: " + o.Err.Error())
		case o.Status < 200 || o.Status > 299:
			fails.add(fmt.Sprintf("%s: HTTP %d", reqs[i].Kind, o.Status))
		default:
			var a answer
			if err := json.Unmarshal(o.Body, &a); err != nil {
				fails.add(reqs[i].Kind + ": bad body: " + err.Error())
			} else if err := chk(reqs[i], &a); err != nil {
				fails.add(reqs[i].Kind + ": wrong answer: " + err.Error())
			}
		}
	}
}

func sameFloat(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

func checkSet(gotSet []int64, gotCost float64, gf *graphFix, want core.Result) error {
	if !slices.Equal(gotSet, gf.origOf(want.Set)) {
		return fmt.Errorf("typical cascade differs (%d vs %d nodes)", len(gotSet), len(want.Set))
	}
	if !sameFloat(gotCost, want.SampleCost) {
		return fmt.Errorf("sample_cost %v, want %v", gotCost, want.SampleCost)
	}
	return nil
}

// singleChecker checks answers of one soid serving a: typical cascades and
// sample costs against core.ComputeFromSet, dense spread against
// cascade.SpreadFromIndex and sketch answers against the sketch.
func singleChecker(a *artifacts) checker {
	sc := a.x.NewScratch()
	return func(r Request, got *answer) error {
		seeds := a.gf.denseOf(r.Seeds)
		switch r.Kind {
		case "sphere-compute":
			return checkSet(got.Sphere, got.SampleCost, a.gf, core.ComputeFromSet(a.x, seeds, core.Options{}))
		case "stability":
			return checkSet(got.Set, got.SampleCost, a.gf, core.ComputeFromSet(a.x, seeds, core.Options{}))
		case "spread-index":
			if want := cascade.SpreadFromIndex(a.x, seeds, sc); !sameFloat(got.Spread, want) {
				return fmt.Errorf("spread %v, want %v", got.Spread, want)
			}
		case "spread-sketch":
			want := a.sk.EstimateSpread(seeds)
			if !sameFloat(got.Spread, want) || !sameFloat(got.ErrorBound, a.sk.ErrorBound(want)) {
				return fmt.Errorf("sketch spread %v ±%v, want %v ±%v", got.Spread, got.ErrorBound, want, a.sk.ErrorBound(want))
			}
		default:
			return fmt.Errorf("no check for %s", r.Kind)
		}
		return nil
	}
}

// shardedChecker checks answers of soigw over the shards: store answers
// against the owning shard's spheres, spread against the per-shard
// estimates summed with the cut bound added, and seeds against the
// per-shard selections merged by gain, as the gateway merges them.
func shardedChecker(f *shardedFix) checker {
	type sel struct {
		seeds []int64
		gains []float64
		bound float64
	}
	seedsCache := map[string]sel{}
	scratch := make([]*index.Scratch, len(f.shards))
	for i, a := range f.shards {
		scratch[i] = a.x.NewScratch()
	}
	bySh := func(ids []int64) map[int][]graph.NodeID {
		m := map[int][]graph.NodeID{}
		for _, id := range ids {
			s := f.owner[id]
			m[s] = append(m[s], f.shards[s].gf.dense[id])
		}
		return m
	}
	selection := func(kind string, k int) (sel, error) {
		key := fmt.Sprintf("%s/%d", kind, k)
		if s, ok := seedsCache[key]; ok {
			return s, nil
		}
		var per []infmax.Selection
		var out sel
		for _, a := range f.shards {
			var s infmax.Selection
			var err error
			if kind == "seeds-tc" {
				s, err = infmax.TC(context.Background(), a.x.Graph(), tcSpheres(a.spheres), k, infmax.TCOptions{})
			} else {
				s, err = infmax.SelectSeedsSketch(a.sk, k)
				out.bound += a.sk.ErrorBound(s.Objective())
			}
			if err != nil {
				return sel{}, err
			}
			per = append(per, s)
		}
		pos := make([]int, len(per))
		for len(out.seeds) < k {
			best := -1
			for s := range per {
				if pos[s] < len(per[s].Seeds) && (best < 0 || per[s].Gains[pos[s]] > per[best].Gains[pos[best]]) {
					best = s
				}
			}
			if best < 0 {
				break
			}
			out.seeds = append(out.seeds, f.shards[best].gf.orig[per[best].Seeds[pos[best]]])
			out.gains = append(out.gains, per[best].Gains[pos[best]])
			pos[best]++
		}
		out.bound += f.topo.CutBound
		seedsCache[key] = out
		return out, nil
	}
	return func(r Request, got *answer) error {
		switch r.Kind {
		case "sphere-store":
			s := f.owner[r.Seeds[0]]
			a := f.shards[s]
			return checkSet(got.Sphere, got.SampleCost, a.gf, a.spheres[a.gf.dense[r.Seeds[0]]])
		case "spread-index", "spread-sketch":
			var want, bound float64
			for s, seeds := range bySh(r.Seeds) {
				a := f.shards[s]
				if r.Kind == "spread-index" {
					want += cascade.SpreadFromIndex(a.x, seeds, scratch[s])
				} else {
					e := a.sk.EstimateSpread(seeds)
					want += e
					bound += a.sk.ErrorBound(e)
				}
			}
			bound += f.topo.CutBound
			if !sameFloat(got.Spread, want) || !sameFloat(got.ErrorBound, bound) {
				return fmt.Errorf("spread %v ±%v, want %v ±%v", got.Spread, got.ErrorBound, want, bound)
			}
		case "seeds-tc", "seeds-sketch":
			want, err := selection(r.Kind, r.K)
			if err != nil {
				return err
			}
			if !slices.Equal(got.Seeds, want.seeds) || !slices.EqualFunc(got.Gains, want.gains, sameFloat) {
				return fmt.Errorf("seeds %v, want %v", got.Seeds, want.seeds)
			}
			if !sameFloat(got.ErrorBound, want.bound) {
				return fmt.Errorf("seeds error_bound %v, want %v", got.ErrorBound, want.bound)
			}
		default:
			return fmt.Errorf("no check for %s", r.Kind)
		}
		return nil
	}
}

func tcSpheres(rs []core.Result) infmax.Spheres {
	out := make(infmax.Spheres, len(rs))
	for v := range rs {
		out[v] = rs[v].Set
	}
	return out
}
