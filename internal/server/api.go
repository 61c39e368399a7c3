// Package server implements the soid query-serving daemon: a long-running
// HTTP/JSON server that loads a graph, a prebuilt cascade index, and an
// optional sphere store once, then answers concurrent sphere / stability /
// seed-selection / spread / reliability / mode queries from memory.
//
// The serving pipeline per request is:
//
//	mux → drain check → cache lookup → singleflight → admission → compute
//
// with an LRU result cache keyed on (endpoint, canonicalized params, index
// fingerprint), deduplication of identical in-flight queries, a bounded
// admission queue that sheds load with 429 + Retry-After, and per-request
// wall-clock budgets mapped onto the checkpoint Budget machinery — a budget
// that truncates sampling yields HTTP 206 with the achieved sample count and
// a Theorem-2-style error bound instead of an error.
//
// Degraded indexes get the same treatment: when a memory-mapped index has
// quarantined corrupt world blocks, estimates cover only the surviving
// worlds, so index-backed endpoints answer 206 with worlds_used /
// worlds_quarantined and a Hoeffding bound re-derived at the live world
// count. An index that has lost every world answers 503 with a retryable
// code so the gateway fails over to a healthy replica.
package server

import "soi/internal/checkpoint"

// partialInfo annotates a 206 response: how much sampling completed before
// the budget's deadline and the resulting error bound. Embedded by every
// response type with budgeted sampling; all-zero (the common case) renders
// nothing.
type partialInfo struct {
	// Partial is true when the per-request budget truncated sampling.
	Partial bool `json:"partial,omitempty"`
	// Achieved is the number of samples completed before the deadline.
	Achieved int `json:"achieved,omitempty"`
	// Requested is the number of samples the request asked for.
	Requested int `json:"requested,omitempty"`
	// ErrorBound is the additive error bound at the achieved sample count,
	// in the same units as the estimate it annotates. When both budget
	// truncation and quarantine degraded the answer, the two bounds sum (a
	// conservative union bound).
	ErrorBound float64 `json:"error_bound,omitempty"`
	// WorldsUsed / WorldsQuarantined report index degradation: corrupt world
	// blocks quarantined by the memory-mapped loader drop out of every
	// estimate, which then covers only WorldsUsed of the index's worlds.
	WorldsUsed        int `json:"worlds_used,omitempty"`
	WorldsQuarantined int `json:"worlds_quarantined,omitempty"`
}

func partialOf(pe *checkpoint.PartialError, scale float64) partialInfo {
	if pe == nil {
		return partialInfo{}
	}
	return partialInfo{
		Partial:    true,
		Achieved:   pe.Achieved,
		Requested:  pe.Requested,
		ErrorBound: pe.Bound * scale,
	}
}

// mergePartial combines a budget-truncation annotation with a
// quarantine-degradation annotation: either alone makes the response
// partial, and their additive error bounds sum.
func mergePartial(budget, quarantine partialInfo) partialInfo {
	out := budget
	out.Partial = budget.Partial || quarantine.Partial
	out.ErrorBound = budget.ErrorBound + quarantine.ErrorBound
	out.WorldsUsed = quarantine.WorldsUsed
	out.WorldsQuarantined = quarantine.WorldsQuarantined
	return out
}

// partialFields exposes the embedded annotation through partialCarrier: any
// response struct embedding partialInfo satisfies it by promotion, so the
// endpoint wrapper can read degradation facts for the request log and trace
// events without knowing the concrete response type.
func (p partialInfo) partialFields() partialInfo { return p }

type partialCarrier interface{ partialFields() partialInfo }

// partialStatus maps an annotation to its HTTP status: 206 for any partial
// answer, 200 otherwise.
func partialStatus(p partialInfo) int {
	if p.Partial {
		return 206
	}
	return 200
}

// sphereResponse answers GET /v1/sphere/{node}.
type sphereResponse struct {
	// Node is the queried node, in original (file) id space.
	Node int64 `json:"node"`
	// Sphere is the typical cascade of Node, sorted, in original ids.
	Sphere []int64 `json:"sphere"`
	Size   int     `json:"size"`
	// SampleCost is the training cost ρ̃ of the sphere over the index worlds.
	SampleCost float64 `json:"sample_cost"`
	// Stability is the held-out stability estimate ρ (present when the
	// request sampled it; -1 in stored spheres that carry none).
	Stability *float64 `json:"stability,omitempty"`
	// StabilitySamples is how many held-out cascades the estimate used.
	StabilitySamples int `json:"stability_samples,omitempty"`
	// Source is "store" (precomputed sphere store), "computed", or "sketch".
	Source string `json:"source"`
	// Estimator is "sketch" when the answer came from the loaded combined
	// bottom-k sketch; empty (dense) otherwise. Sketch answers carry the
	// Cohen (ε, δ=0.05) bound in error_bound.
	Estimator string `json:"estimator,omitempty"`
	// EstimatedSize is the sketch-estimated expected cascade magnitude
	// (estimator=sketch only; the sketch knows sizes, not members).
	EstimatedSize float64 `json:"estimated_size,omitempty"`
	partialInfo
}

// stabilityResponse answers GET /v1/stability.
type stabilityResponse struct {
	Seeds      []int64 `json:"seeds"`
	Set        []int64 `json:"set"`
	Size       int     `json:"size"`
	SampleCost float64 `json:"sample_cost"`
	Stability  float64 `json:"stability"`
	Samples    int     `json:"samples"`
	partialInfo
}

// seedsResponse answers GET /v1/seeds.
type seedsResponse struct {
	K int `json:"k"`
	// Seeds in selection order, original ids.
	Seeds []int64 `json:"seeds"`
	// Gains are the per-seed marginal coverage gains (covered-node units).
	Gains []float64 `json:"gains"`
	// Objective is the total sphere coverage of the selection.
	Objective float64 `json:"objective"`
	// Coverage is Objective / n.
	Coverage        float64 `json:"coverage"`
	LazyEvaluations int     `json:"lazy_evaluations"`
	// Estimator is "sketch" for SKIM-style sketch-space selection (Gains and
	// Objective are then in expected-spread units); empty for the dense
	// max-cover over the sphere store.
	Estimator string `json:"estimator,omitempty"`
	// ErrorBound is the additive Cohen (ε, δ=0.05) bound on Objective
	// (estimator=sketch only).
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// spreadResponse answers GET /v1/spread.
type spreadResponse struct {
	Seeds  []int64 `json:"seeds"`
	Spread float64 `json:"spread"`
	// Method is "index" (expected spread over the loaded index's worlds) or
	// "mc" (fresh Monte-Carlo simulations under the request budget).
	Method string `json:"method"`
	// Trials is the Monte-Carlo trial count (method "mc" only).
	Trials int `json:"trials,omitempty"`
	// Estimator is "sketch" when the spread came from the loaded combined
	// bottom-k sketch (error_bound then carries the Cohen ε·estimate bound
	// at δ=0.05); empty for the dense estimators.
	Estimator string `json:"estimator,omitempty"`
	partialInfo
}

// reliabilityResponse answers GET /v1/reliability.
type reliabilityResponse struct {
	Sources   []int64 `json:"sources"`
	Threshold float64 `json:"threshold"`
	Nodes     []int64 `json:"nodes"`
	Count     int     `json:"count"`
	Samples   int     `json:"samples"`
	partialInfo
}

// modeJSON is one cascade mode in a modesResponse.
type modeJSON struct {
	Median      []int64 `json:"median"`
	Size        int     `json:"size"`
	Probability float64 `json:"probability"`
	Cost        float64 `json:"cost"`
}

// modesResponse answers GET /v1/modes/{node}.
type modesResponse struct {
	Node               int64      `json:"node"`
	K                  int        `json:"k"`
	Modes              []modeJSON `json:"modes"`
	TakeoffProbability float64    `json:"takeoff_probability"`
	partialInfo
}

// infoResponse answers GET /v1/info.
type infoResponse struct {
	Nodes  int `json:"nodes"`
	Edges  int `json:"edges"`
	Worlds int `json:"worlds"`
	// WorldsQuarantined counts index world blocks quarantined for corruption
	// (always present, normally 0 — a non-zero value means the index file
	// needs soifsck and answers are 206-degraded).
	WorldsQuarantined int `json:"worlds_quarantined"`
	// Mmap is true when the index serves page-on-demand from a mapped file
	// rather than an eager in-memory load.
	Mmap bool `json:"mmap"`
	// GraphFingerprint and IndexFingerprint identify the loaded artifacts
	// (soi.Fingerprint / Index.Fingerprint, %016x); clients validate that
	// they are talking to the dataset they think they are.
	GraphFingerprint string `json:"graph_fingerprint"`
	IndexFingerprint string `json:"index_fingerprint"`
	SpheresLoaded    bool   `json:"spheres_loaded"`
	SketchLoaded     bool   `json:"sketch_loaded"`
	CacheEntries     int    `json:"cache_entries"`
	UptimeSeconds    int64  `json:"uptime_seconds"`
}
