package server

import (
	"fmt"
	"testing"

	"soi/internal/sketch"
	"soi/internal/telemetry"
)

// TestRegistryDoesNotGrowWithRequests pins that serving never grows the
// metrics registry: every computed /v1/seeds (TC and estimator=sketch) and
// /v1/spread?method=mc request times its library phase (infmax.tc.greedy,
// cascade.expected_spread) with a span in the request's trace, never in the
// long-lived registry, so its report behind /debug/vars stays the same size
// however many requests are served.
func TestRegistryDoesNotGrowWithRequests(t *testing.T) {
	const n = 100 // requests of each kind per round
	f := sharedFixture(t)
	reg := telemetry.New()
	sk, err := sketch.Build(f.x, sketch.Options{K: 8, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) {
		c.Telemetry = reg
		c.Sketch = sk
		c.CacheSize = -1 // every request computes
	})
	round := func(r int) int {
		t.Helper()
		for i := 0; i < n; i++ {
			k := 1 + i%f.g.NumNodes()
			for _, url := range []string{
				fmt.Sprintf("/v1/seeds?k=%d", k),
				fmt.Sprintf("/v1/seeds?k=%d&estimator=sketch", k),
				fmt.Sprintf("/v1/spread?seeds=%d&method=mc&trials=%d", i%f.g.NumNodes(), 10+r),
			} {
				if rec, _ := do(t, s, url); rec.Code != 200 {
					t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
				}
			}
		}
		rep := reg.Report()
		if len(rep.Spans) != 0 {
			t.Fatalf("round %d: registry holds %d spans after %d requests", r, len(rep.Spans), 3*n*(r+1))
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	first := round(0)
	second := round(1)
	// Counter digits, run-info timings and newly filled histogram buckets
	// may move the size a little; a retained span per request would add
	// tens of kilobytes.
	if second > first+2048 {
		t.Fatalf("registry report grew from %d to %d bytes over %d more requests", first, second, 3*n)
	}
}
