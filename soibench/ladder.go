package main

import "fmt"

// ladder climbs the workload's fixed rate ladder against the serving code
// hosted in-process, each rung a fresh stream of requests for an equal
// slice of the run, its first warmup_share untimed as in the nominal
// run. A rung passes when every request is answered, the
// reported tail latency (p99, or the highest percentile with ten samples
// beyond it) is within the workload's limit, and the generator ends the
// rung less than one limit behind schedule (no growing backlog). It
// returns the highest rate passed before the first failing rung, 0 if the
// first fails.
func (e *env) ladder(t *target) (float64, error) {
	dep, err := e.start(t, true, nil)
	if err != nil {
		return 0, err
	}
	defer dep.stop()
	send := httpSender(newClient(e.spec.MaxInflight), dep.base, nil)
	rung := e.seconds / float64(len(e.ws.LadderRPS))
	best := 0.0
	for i, rate := range e.ws.LadderRPS {
		reqs := genRequests(e.ws, t.nodes, max(1, int(rate*rung)), e.seed+uint64(i)+1, e.name == "build")
		outs := openLoop(e.ctx, send, reqs, rate, e.spec.MaxInflight)
		st := loadStats(outs[int(e.ws.WarmupShare*float64(len(outs))):])
		lat := tail("", "", st.Latency)
		lastLag := st.Lag[len(st.Lag)-1]
		ok := st.Completed == st.Sent && lat.Value <= e.ws.P99LimitMS && lastLag < e.ws.P99LimitMS
		fmt.Printf("ladder %s %6.0f/s: %d/%d answered, p%g %.3f ms, final lag %.3f ms -> %v\n",
			e.name, rate, st.Completed, st.Sent, lat.Quantile*100, lat.Value, lastLag, ok)
		if !ok {
			break
		}
		best = rate
	}
	return best, nil
}
