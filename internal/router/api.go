package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"soi/internal/httpapi"
	"soi/internal/trace"
)

// CodeShardUnavailable is the gateway's error code for a single-shard query
// whose owning shard has no usable replica: unlike scatter queries there is
// nothing to degrade to, so the client gets a retryable error instead.
const CodeShardUnavailable = "shard_unavailable"

func shardUnavailable(shard int, err error) *httpapi.Error {
	return &httpapi.Error{
		Status: http.StatusServiceUnavailable, Code: CodeShardUnavailable,
		Msg:        fmt.Sprintf("shard %d unavailable: %v", shard, err),
		RetryAfter: time.Second,
	}
}

// Handler returns the gateway mux.
func (r *Router) Handler() http.Handler { return r.mux }

func (r *Router) buildMux() {
	mux := http.NewServeMux()
	httpapi.Mount(mux, r.cfg.Telemetry, r.cfg.Tracer)
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	mux.Handle("GET /v1/info", r.endpoint("info", r.handleInfo))
	mux.HandleFunc("GET /v1/topology", r.handleTopology)
	mux.Handle("GET /v1/sphere/{node}", r.endpoint("sphere", r.handleSphere))
	mux.Handle("GET /v1/modes/{node}", r.endpoint("modes", r.handleModes))
	mux.Handle("GET /v1/stability", r.endpoint("stability", r.handleStability))
	mux.Handle("GET /v1/seeds", r.endpoint("seeds", r.handleSeeds))
	mux.Handle("GET /v1/spread", r.endpoint("spread", r.handleSpread))
	mux.Handle("GET /v1/reliability", r.endpoint("reliability", r.handleReliability))
	r.mux = mux
}

// Shutdown starts the drain: new requests get 503 code "draining", /readyz
// goes not-ready, and the health probers stop. In-flight scatters finish;
// the listener (httpapi.Gate) waits for them.
func (r *Router) Shutdown() {
	r.frame.Drain()
	r.Close()
}

func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := httpapi.ReadyResponse{Ready: true}
	var unready []string
	for s, group := range r.shards {
		n := 0
		for _, rep := range group {
			if rep.healthy.Load() {
				n++
			}
		}
		if n == 0 {
			unready = append(unready, strconv.Itoa(s))
		}
	}
	if r.frame.Draining() {
		resp.Ready = false
		resp.Reason = "draining"
	} else if len(unready) > 0 {
		resp.Ready = false
		resp.Reason = "no healthy replica for shard(s) " + strings.Join(unready, ",")
	}
	httpapi.WriteReady(w, resp)
}

// degradeCarrier extracts degradeInfo from any merged gateway response (the
// gw*Response types promote it through their embedded degradeInfo), so the
// endpoint wrapper can log fan-out health without knowing the response shape.
type degradeCarrier interface{ degradeFields() degradeInfo }

func (d degradeInfo) degradeFields() degradeInfo { return d }

// endpoint wraps a gateway handler inside the shared request frame with
// the budget context, error mapping, and degradation metrics.
func (r *Router) endpoint(name string, fn func(*http.Request) (int, any, error)) http.Handler {
	spanName := "soigw." + name
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mRequests.Inc()
		c, ok := r.frame.Begin(w, req, name, spanName)
		defer c.End()
		if !ok {
			return
		}
		budget, err := httpapi.ParseBudget(c.Req, r.cfg.DefaultBudget, r.cfg.MaxBudget)
		if err != nil {
			c.Fail(w, asError(err))
			return
		}
		ctx, cancel := context.WithDeadline(c.Req.Context(), r.now().Add(budget))
		defer cancel()
		st, v, err := fn(c.Req.WithContext(withBudget(ctx, budget)))
		if err != nil {
			c.Fail(w, asError(err))
			return
		}
		c.Status = st
		c.Record.Partial = st == http.StatusPartialContent
		if dc, ok := v.(degradeCarrier); ok {
			deg := dc.degradeFields()
			c.Record.ErrorBound = deg.ErrorBound
			c.Record.ShardsOK, c.Record.ShardsTotal = deg.ShardsOK, deg.ShardsTotal
			c.Record.FailedShards = deg.FailedShards
		}
		if c.Record.Partial {
			r.mDegraded.Inc()
			// The merge widened the answer: record how far and why on the root
			// span, so a 206's trace explains itself.
			c.Span.Event("degraded",
				trace.Int("shards_ok", int64(c.Record.ShardsOK)),
				trace.Int("shards_total", int64(c.Record.ShardsTotal)),
				trace.Float("error_bound", c.Record.ErrorBound))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(st)
		json.NewEncoder(w).Encode(v)
	})
}

// asError maps a handler failure onto the error the gateway answers with:
// request errors keep their status and code, anything else is a 502.
func asError(err error) *httpapi.Error {
	var e *httpapi.Error
	if errors.As(err, &e) {
		return e
	}
	return &httpapi.Error{Status: http.StatusBadGateway, Code: httpapi.CodeInternal, Msg: err.Error()}
}

type gwBudgetKey struct{}

func withBudget(ctx context.Context, b time.Duration) context.Context {
	return context.WithValue(ctx, gwBudgetKey{}, b)
}

func budgetOf(ctx context.Context) time.Duration {
	b, _ := ctx.Value(gwBudgetKey{}).(time.Duration)
	return b
}

// subQuery rewrites the client query for one shard leg: per-shard node
// parameters override the client's, and the budget is shrunk by the merge
// grace so the gateway has time to gather and merge before its own deadline.
func (r *Router) subQuery(req *http.Request, overrides map[string]string) string {
	q := url.Values{}
	for k, vs := range req.URL.Query() {
		q[k] = vs
	}
	for k, v := range overrides {
		q.Set(k, v)
	}
	budget := budgetOf(req.Context())
	sub := budget - r.cfg.mergeGrace()
	if sub < budget/2 {
		sub = budget / 2
	}
	q.Set("budget", sub.String())
	return "?" + q.Encode()
}

// groupParam parses a comma-separated original-id list and groups it by
// owning shard.
func (r *Router) groupParam(req *http.Request, param string) (map[int][]int64, []int64, error) {
	raw := req.URL.Query().Get(param)
	if raw == "" {
		return nil, nil, httpapi.BadRequest("missing %s parameter (comma-separated node ids)", param)
	}
	byShard := make(map[int][]int64)
	var all []int64
	for _, p := range strings.Split(raw, ",") {
		id, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, nil, httpapi.BadRequest("bad %s entry %q", param, p)
		}
		shard, ok := r.owner[id]
		if !ok {
			return nil, nil, httpapi.NotFound("unknown node %d", id)
		}
		byShard[shard] = append(byShard[shard], id)
		all = append(all, id)
	}
	return byShard, all, nil
}

func idList(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(id, 10)
	}
	return strings.Join(parts, ",")
}

func sortedShards(byShard map[int][]int64) []int {
	out := make([]int, 0, len(byShard))
	for s := range byShard {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func statusOf(partial bool) int {
	if partial {
		return http.StatusPartialContent
	}
	return http.StatusOK
}

// --- single-shard pass-through endpoints ----------------------------------

// passThrough routes a query to the shard owning the path {node} and relays
// the shard's answer (status and body) unchanged.
func (r *Router) passThrough(req *http.Request, path string) (int, any, error) {
	raw := req.PathValue("node")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, nil, httpapi.BadRequest("bad node %q", raw)
	}
	shard, okOwner := r.owner[id]
	if !okOwner {
		return 0, nil, httpapi.NotFound("unknown node %d", id)
	}
	leg := r.fetchShard(req.Context(), shard, path+r.subQuery(req, nil))
	if leg.Err != nil {
		return 0, nil, shardUnavailable(shard, leg.Err)
	}
	return leg.Status, json.RawMessage(leg.Body), nil
}

func (r *Router) handleSphere(req *http.Request) (int, any, error) {
	return r.passThrough(req, "/v1/sphere/"+url.PathEscape(req.PathValue("node")))
}

func (r *Router) handleModes(req *http.Request) (int, any, error) {
	return r.passThrough(req, "/v1/modes/"+url.PathEscape(req.PathValue("node")))
}

// --- scatter-gather endpoints ---------------------------------------------

func (r *Router) handleSpread(req *http.Request) (int, any, error) {
	byShard, all, err := r.groupParam(req, "seeds")
	if err != nil {
		return 0, nil, err
	}
	method := req.URL.Query().Get("method")
	if method == "" {
		method = "index"
	}
	shards := sortedShards(byShard)
	legs := r.scatter(req.Context(), shards, func(s int) string {
		return "/v1/spread" + r.subQuery(req, map[string]string{"seeds": idList(byShard[s])})
	})
	resp, err := r.mergeSpread(legs, byShard, all, method)
	if err != nil {
		return 0, nil, err
	}
	return statusOf(resp.Partial), resp, nil
}

func (r *Router) handleSeeds(req *http.Request) (int, any, error) {
	raw := req.URL.Query().Get("k")
	if raw == "" {
		return 0, nil, httpapi.BadRequest("missing k parameter")
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 || k > r.topo.NumNodes {
		return 0, nil, httpapi.BadRequest("k must be in [1, %d], got %q", r.topo.NumNodes, raw)
	}
	shards := make([]int, len(r.shards))
	for i := range shards {
		shards[i] = i
	}
	legs := r.scatter(req.Context(), shards, func(s int) string {
		ks := k
		if n := r.topo.Shards[s].NumNodes; ks > n {
			ks = n
		}
		return "/v1/seeds" + r.subQuery(req, map[string]string{"k": strconv.Itoa(ks)})
	})
	resp, err := r.mergeSeeds(legs, k)
	if err != nil {
		return 0, nil, err
	}
	return statusOf(resp.Partial), resp, nil
}

func (r *Router) handleReliability(req *http.Request) (int, any, error) {
	byShard, all, err := r.groupParam(req, "sources")
	if err != nil {
		return 0, nil, err
	}
	threshold, err := httpapi.ParseThreshold(req)
	if err != nil {
		return 0, nil, err
	}
	shards := sortedShards(byShard)
	legs := r.scatter(req.Context(), shards, func(s int) string {
		return "/v1/reliability" + r.subQuery(req, map[string]string{"sources": idList(byShard[s])})
	})
	resp, err := r.mergeReliability(legs, all, threshold)
	if err != nil {
		return 0, nil, err
	}
	return statusOf(resp.Partial), resp, nil
}

func (r *Router) handleStability(req *http.Request) (int, any, error) {
	byShard, all, err := r.groupParam(req, "seeds")
	if err != nil {
		return 0, nil, err
	}
	shards := sortedShards(byShard)
	if len(shards) == 1 {
		// Single-owner seed sets are exact: relay the owning shard's answer.
		s := shards[0]
		leg := r.fetchShard(req.Context(), s, "/v1/stability"+r.subQuery(req, map[string]string{"seeds": idList(byShard[s])}))
		if leg.Err != nil {
			return 0, nil, shardUnavailable(s, leg.Err)
		}
		return leg.Status, json.RawMessage(leg.Body), nil
	}
	legs := r.scatter(req.Context(), shards, func(s int) string {
		return "/v1/stability" + r.subQuery(req, map[string]string{"seeds": idList(byShard[s])})
	})
	resp, err := r.mergeStability(legs, byShard, all)
	if err != nil {
		return 0, nil, err
	}
	return statusOf(resp.Partial), resp, nil
}

// --- info & topology ------------------------------------------------------

// gwInfoResponse answers GET /v1/info on the gateway.
type gwInfoResponse struct {
	Shards           int     `json:"shards"`
	Nodes            int     `json:"nodes"`
	GraphFingerprint string  `json:"graph_fingerprint"`
	CutEdges         int     `json:"cut_edges"`
	CutBound         float64 `json:"cut_bound"`
	CutProb          float64 `json:"cut_prob"`
	HealthyReplicas  int     `json:"healthy_replicas"`
	TotalReplicas    int     `json:"total_replicas"`
	UptimeSeconds    int64   `json:"uptime_seconds"`
}

func (r *Router) handleInfo(*http.Request) (int, any, error) {
	resp := gwInfoResponse{
		Shards:           len(r.shards),
		Nodes:            r.topo.NumNodes,
		GraphFingerprint: r.topo.GraphFingerprint,
		CutEdges:         r.topo.CutEdges,
		CutBound:         r.topo.CutBound,
		CutProb:          r.topo.CutProb,
		UptimeSeconds:    int64(r.now().Sub(r.started).Seconds()),
	}
	for _, group := range r.shards {
		for _, rep := range group {
			resp.TotalReplicas++
			if rep.healthy.Load() {
				resp.HealthyReplicas++
			}
		}
	}
	return http.StatusOK, resp, nil
}

// replicaStatus is one replica's live state in GET /v1/topology.
type replicaStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Breaker   string `json:"breaker"`
	LastError string `json:"last_error,omitempty"`
}

type shardStatus struct {
	ID       int             `json:"id"`
	Nodes    int             `json:"nodes"`
	Replicas []replicaStatus `json:"replicas"`
}

func (r *Router) handleTopology(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		GraphFingerprint string        `json:"graph_fingerprint"`
		Shards           []shardStatus `json:"shards"`
	}{GraphFingerprint: r.topo.GraphFingerprint}
	for s, group := range r.shards {
		st := shardStatus{ID: s, Nodes: r.topo.Shards[s].NumNodes}
		for _, rep := range group {
			st.Replicas = append(st.Replicas, replicaStatus{
				URL:       rep.baseURL,
				Healthy:   rep.healthy.Load(),
				Breaker:   rep.breaker.State().String(),
				LastError: rep.probeErr(),
			})
		}
		out.Shards = append(out.Shards, st)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
