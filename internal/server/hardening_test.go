package server

import (
	"bytes"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPanicRecovery proves a panicking handler is converted into a 500
// carrying a request id, logged with a stack trace, counted in
// wsd_panics_total — and that the daemon keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	srv, ts := newTestServer(t)
	var logBuf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logBuf)
	defer log.SetOutput(prev)

	h := srv.instrument("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "internal error (request") {
		t.Errorf("500 body missing request id: %q", body)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "panic serving GET /boom") || !strings.Contains(logged, "goroutine") {
		t.Errorf("panic log missing route or stack trace: %q", logged)
	}

	// A handler that panics after starting the response must not have a
	// 500 spliced into its half-written body.
	h = srv.instrument("GET /boom2", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "partial")
		panic("late boom")
	})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom2", nil))
	if body := rec.Body.String(); strings.Contains(body, "internal error") {
		t.Errorf("error payload appended to half-written response: %q", body)
	}

	// The daemon survived both panics.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, mresp)
	if !strings.Contains(text, "wsd_panics_total 2") {
		t.Errorf("metrics missing panic count:\n%s", grepMetric(text, "wsd_panics_total"))
	}
	if !strings.Contains(text, `wsd_http_requests_total{path="GET /boom",method="GET",code="500"} 1`) {
		t.Errorf("panicked request not observed as 500:\n%s", grepMetric(text, "GET /boom"))
	}
}

// TestRunFaultValidation: a removed request field answers 400 — the strict
// decoders refuse the unknown field — and nothing is simulated, cached or
// journaled for it. A fault block, well-formed or not, is refused on a
// run, in a scenario document or in one of its phases (fault injection
// was deleted), and a timeout_s on a plain or scenario run (every wait
// uses the server-wide request timeout).
func TestRunFaultValidation(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wsd.jsonl")
	srv, ts := newTestServer(t, WithJournal(journal, false))
	cases := []struct {
		name, field, path, body string
	}{
		{"rate out of range", "fault", "/v1/runs", `{"workload":"fft","fault":{"mem_drop_rate":1.5}}`},
		{"target outside machine", "fault", "/v1/runs", `{"workload":"fft","fault":{"events":[{"cycle":1,"kind":"kill_pe","pe":99}]}}`},
		{"unknown event kind", "fault", "/v1/runs", `{"workload":"fft","fault":{"events":[{"cycle":1,"kind":"explode"}]}}`},
		{"unknown fault field", "fault", "/v1/runs", `{"workload":"fft","fault":{"typo_rate":0.5}}`},
		{"kill a PE", "fault", "/v1/runs", `{"workload":"fft","fault":{"events":[{"cycle":100,"kind":"kill_pe","cluster":0,"domain":1,"pe":3}]}}`},
		{"inline scenario", "fault", "/v1/runs", `{"scenario":{"scenario":"v1","workload":{"name":"fft"},"fault":{"seed":7}}}`},
		{"stored scenario", "fault", "/v1/scenarios", `{"scenario":"v1","workload":{"name":"fft"},"fault":{"seed":7,"link_flip_rate":0.001}}`},
		{"scenario phase", "fault", "/v1/scenarios", `{"scenario":"v1","phases":[{"workload":{"name":"fft"},"fault":{"seed":7}}]}`},
		{"scenario sweep", "fault", "/v1/sweeps", `{"max_points":2,"scenario":{"scenario":"v1","workload":{"name":"fft"},"fault":{"seed":7}}}`},
		{"run timeout", "timeout_s", "/v1/runs", `{"workload":"fft","timeout_s":0.5}`},
		{"scenario run timeout", "timeout_s", "/v1/runs", `{"scenario":{"scenario":"v1","workload":{"name":"fft"}},"timeout_s":30}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+tc.path, tc.body)
			apiErr := errEnvelope(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%+v)", resp.StatusCode, apiErr)
			}
			if apiErr.Code != "bad_request" || !strings.Contains(apiErr.Message, `unknown field "`+tc.field+`"`) {
				t.Errorf("error envelope does not name the field: %+v", apiErr)
			}
		})
	}
	if st := srv.exp.Cache().Stats(); st.Cells != 0 {
		t.Errorf("refused requests left %d cells in the cache", st.Cells)
	}
	if data, err := os.ReadFile(journal); err == nil && len(data) > 0 {
		t.Errorf("refused requests were journaled:\n%s", data)
	}
	if got := srv.counter(&srv.metrics.simsCompleted) + srv.counter(&srv.metrics.simsFailed); got != 0 {
		t.Errorf("refused requests ran %d simulations", got)
	}
}
