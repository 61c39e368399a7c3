package httpapi

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestMountWithoutTelemetryOrTracer pins the debug surface both daemons
// serve when neither a registry nor a tracer is configured: /metrics still
// answers 200 (empty), only /debug/traces reports the missing tracer.
func TestMountWithoutTelemetryOrTracer(t *testing.T) {
	mux := http.NewServeMux()
	Mount(mux, nil, nil)
	for _, tc := range []struct {
		path   string
		status int
		body   string // checked unless "*"
	}{
		{"/healthz", http.StatusOK, "ok\n"},
		{"/metrics", http.StatusOK, ""},
		{"/debug/traces", http.StatusNotFound, "*"},
		{"/debug/vars", http.StatusOK, "*"},
		{"/debug/pprof/", http.StatusOK, "*"},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("GET %s: status %d, want %d", tc.path, rec.Code, tc.status)
		}
		if tc.body != "*" && rec.Body.String() != tc.body {
			t.Errorf("GET %s: body %q, want %q", tc.path, rec.Body.String(), tc.body)
		}
	}
}
