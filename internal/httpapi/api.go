// Package httpapi is the HTTP scaffold shared by the two serving daemons,
// soid (internal/server) and soigw (internal/router): the /v1 error
// contract, the request-parameter parsing both tiers must agree on, the
// debug surface, the request frame every /v1 endpoint runs inside, the
// one listener (Gate) both binaries bind through, and the daemon flags and
// files both share (tracing flags, -addr-file, -stats-json).
//
// It imports no compute package, so the gateway can speak the wire
// contract without linking the index, sketch and sampling code it never
// runs.
package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Error codes carried by every non-2xx /v1 response. They are the machine
// contract: the soigw router decides retryable-vs-permanent from the code,
// never by matching message strings.
const (
	CodeBadRequest = "bad_request"      // malformed request; permanent
	CodeNotFound   = "not_found"        // unknown node/resource; permanent
	CodeConflict   = "conflict"         // endpoint needs an artifact the daemon did not load; permanent
	CodeOverloaded = "overloaded"       // admission queue full; retry after backoff
	CodeBudget     = "budget_too_small" // budget expired before any result; retry with a larger budget
	CodeDraining   = "draining"         // daemon is shutting down; fail over to a replica
	CodeLoading    = "loading"          // daemon is still loading artifacts; retry shortly
	CodeDegraded   = "degraded"         // index lost every world to quarantine; fail over to a replica
	CodeCanceled   = "canceled"         // client went away mid-request
	CodeInternal   = "internal"         // unexpected server-side failure
)

// RetryableCode reports whether a request that failed with code is worth
// retrying (possibly against another replica) without changing the request.
func RetryableCode(code string) bool {
	switch code {
	case CodeOverloaded, CodeDraining, CodeLoading, CodeDegraded:
		return true
	}
	return false
}

// ErrorInfo is the error object inside every non-2xx response body.
type ErrorInfo struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail; clients must not parse it.
	Message string `json:"message"`
	// RetryAfterMS, when non-zero, is the server's backoff hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the JSON body of every non-2xx response:
// {"error":{"code":...,"message":...,"retry_after_ms":...}}.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// ReadyResponse is the body of GET /readyz on both soid and soigw. It
// surfaces the loaded artifact fingerprints so a router can verify a replica
// serves the shard the topology manifest promises before sending it traffic.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	// GraphFingerprint / IndexFingerprint are %016x of the loaded artifacts;
	// empty while loading.
	GraphFingerprint string `json:"graph_fingerprint,omitempty"`
	IndexFingerprint string `json:"index_fingerprint,omitempty"`
	SpheresLoaded    bool   `json:"spheres_loaded,omitempty"`
	SketchLoaded     bool   `json:"sketch_loaded,omitempty"`
}

// WriteError writes the standard /v1 error envelope. A non-zero retryAfter
// also sets the Retry-After header (whole seconds, rounded up).
func WriteError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorInfo{
		Code:         code,
		Message:      msg,
		RetryAfterMS: retryAfter.Milliseconds(),
	}})
}

// WriteReady writes a /readyz answer: 200 when resp.Ready, 503 otherwise.
func WriteReady(w http.ResponseWriter, resp ReadyResponse) {
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// Error is a request error with a definite status and machine-readable
// code. RetryAfter, when non-zero, becomes the response's Retry-After header
// and retry_after_ms hint — every retryable 503 must carry one so the
// gateway's Retry-After honoring applies.
type Error struct {
	Status     int
	Code       string
	Msg        string
	RetryAfter time.Duration
}

func (e *Error) Error() string { return e.Msg }

// BadRequest is a 400 bad_request.
func BadRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// NotFound is a 404 not_found.
func NotFound(format string, args ...any) *Error {
	return &Error{Status: http.StatusNotFound, Code: CodeNotFound, Msg: fmt.Sprintf(format, args...)}
}

// Conflict is a 409 conflict.
func Conflict(format string, args ...any) *Error {
	return &Error{Status: http.StatusConflict, Code: CodeConflict, Msg: fmt.Sprintf(format, args...)}
}

// ParseBudget parses the request's budget parameter (a Go duration). An
// absent budget is def, a larger one is capped at max; zero def and max
// select 2s and 30s. A malformed or non-positive budget is a BadRequest.
func ParseBudget(req *http.Request, def, max time.Duration) (time.Duration, error) {
	if def <= 0 {
		def = 2 * time.Second
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	v := req.URL.Query().Get("budget")
	if v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, BadRequest("bad budget %q: %v", v, err)
	}
	if d <= 0 {
		return 0, BadRequest("budget must be positive, got %q", v)
	}
	return min(d, max), nil
}

// ParseThreshold parses /v1/reliability's threshold parameter: absent is
// 0.5; anything that is not a finite probability in (0, 1] is a BadRequest.
// Both tiers reject it up front, so a bad threshold never reaches the
// sampler as a 500 (which the gateway would count against every healthy
// replica's circuit breaker).
func ParseThreshold(req *http.Request) (float64, error) {
	raw := req.URL.Query().Get("threshold")
	if raw == "" {
		return 0.5, nil
	}
	t, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, BadRequest("bad threshold %q", raw)
	}
	if math.IsNaN(t) || t <= 0 || t > 1 {
		return 0, BadRequest("threshold must be in (0, 1], got %q", raw)
	}
	return t, nil
}
