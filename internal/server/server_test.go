package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wavescalar/internal/workload"
)

func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// errEnvelope decodes the API's uniform {"error":{"code","message"}}
// error shape.
func errEnvelope(t *testing.T, resp *http.Response) apiError {
	t.Helper()
	return decode[map[string]apiError](t, resp)["error"]
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	body := decode[map[string]any](t, resp)
	if body["status"] != "ok" || body["role"] != "single" {
		t.Errorf("status = %v, role = %v; want ok, single", body["status"], body["role"])
	}
	v, ok := body["version"].(map[string]any)
	if !ok || v["tool"] != "wsd" {
		t.Errorf("version payload missing or wrong: %v", body["version"])
	}
	if _, ok := body["cache"].(map[string]any); !ok {
		t.Errorf("cache stats missing: %v", body)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[struct {
		Count     int `json:"count"`
		Workloads []struct {
			Name, Suite string
		} `json:"workloads"`
	}](t, resp)
	if want := len(workload.All()); body.Count != want || len(body.Workloads) != want {
		t.Errorf("count = %d (%d rows), want %d", body.Count, len(body.Workloads), want)
	}
}

func TestDesignsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/designs?max=5")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[struct {
		Count   int              `json:"count"`
		Designs []map[string]any `json:"designs"`
	}](t, resp)
	if body.Count != 5 || len(body.Designs) != 5 {
		t.Errorf("count = %d (%d rows), want 5", body.Count, len(body.Designs))
	}
	if _, ok := body.Designs[0]["area_mm2"]; !ok {
		t.Errorf("design row missing area: %v", body.Designs[0])
	}

	// max is a whole decimal number or nothing: trailing garbage and a
	// leading (percent-encoded) space used to parse as their digits.
	for raw, shown := range map[string]string{"zero": "zero", "0": "0", "-3": "-3", "12abc": "12abc", "%2010": " 10"} {
		bad, err := http.Get(ts.URL + "/v1/designs?max=" + raw)
		if err != nil {
			t.Fatal(err)
		}
		if bad.StatusCode != http.StatusBadRequest {
			t.Errorf("max=%s: status %d, want 400", raw, bad.StatusCode)
		}
		want := apiError{Code: "bad_request", Message: fmt.Sprintf("bad max %q", shown)}
		if got := errEnvelope(t, bad); got != want {
			t.Errorf("max=%s: error %+v, want %+v", raw, got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"bad json", `{not json`, http.StatusBadRequest},
		{"unknown field", `{"wrkload":"fft"}`, http.StatusBadRequest},
		{"missing workload", `{}`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"doom"}`, http.StatusNotFound},
		{"bad scale", `{"workload":"fft","scale":"huge"}`, http.StatusBadRequest},
		{"negative threads", `{"workload":"fft","threads":-1}`, http.StatusBadRequest},
		{"bad config", `{"workload":"fft","config":{"match":3}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+"/v1/runs", tc.body)
			apiErr := errEnvelope(t, resp)
			if resp.StatusCode != tc.wantCode {
				t.Errorf("status %d, want %d (%+v)", resp.StatusCode, tc.wantCode, apiErr)
			}
			if apiErr.Code == "" || apiErr.Message == "" {
				t.Errorf("error envelope incomplete: %+v", apiErr)
			}
			if tc.wantCode == http.StatusNotFound && apiErr.Code != "not_found" {
				t.Errorf("code %q, want not_found", apiErr.Code)
			}
		})
	}
}

func TestRunThenCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"workload":"fft","scale":"tiny"}`

	resp := post(t, ts.URL+"/v1/runs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d", resp.StatusCode)
	}
	first := decode[struct {
		Key    string          `json:"key"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}](t, resp)
	if first.Cached {
		t.Error("first run reported cached")
	}
	var res runResult
	if err := json.Unmarshal(first.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.AIPC <= 0 || res.App != "fft" || res.Err != "" {
		t.Errorf("unexpected result: %+v", res)
	}

	resp = post(t, ts.URL+"/v1/runs", body)
	second := decode[struct {
		Key    string          `json:"key"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}](t, resp)
	if !second.Cached {
		t.Error("second run not served from cache")
	}
	if string(second.Result) != string(first.Result) {
		t.Errorf("cached result differs:\nfirst  %s\nsecond %s", first.Result, second.Result)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"no suite or apps", `{}`, http.StatusBadRequest},
		{"unknown suite", `{"suite":"spec95"}`, http.StatusBadRequest},
		{"unknown app", `{"apps":["doom"]}`, http.StatusNotFound},
		{"bad threads", `{"suite":"mediabench","thread_counts":[0]}`, http.StatusBadRequest},
		{"bad scale", `{"suite":"mediabench","scale":"huge"}`, http.StatusBadRequest},
		{"negative max_points", `{"suite":"mediabench","max_points":-1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+"/v1/sweeps", tc.body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.wantCode)
			}
		})
	}
}

// pollJob fetches the job until it reaches a terminal state.
func pollJob(t *testing.T, url, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := decode[map[string]any](t, resp)
		switch body["state"] {
		case stateDone, stateFailed, stateCancelled:
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %v", id, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sweepResult runs one sweep to completion and returns its result (designs
// and frontier) re-encoded, so two sweeps compare as strings.
func sweepResult(t *testing.T, url, body string) string {
	t.Helper()
	id := decode[struct {
		ID string `json:"id"`
	}](t, post(t, url+"/v1/sweeps", body)).ID
	job := pollJob(t, url, id)
	if job["state"] != stateDone {
		t.Fatalf("sweep %s: state %v: %v", id, job["state"], job)
	}
	out, err := json.Marshal(job["result"])
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	app := workload.BySuite(workload.Media)[0].Name
	resp := post(t, ts.URL+"/v1/sweeps", fmt.Sprintf(`{"apps":[%q],"max_points":2}`, app))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	accepted := decode[struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}](t, resp)
	if accepted.ID == "" || accepted.Cells != 2 {
		t.Fatalf("accepted = %+v", accepted)
	}

	body := pollJob(t, ts.URL, accepted.ID)
	if body["state"] != stateDone {
		t.Fatalf("job state %v: %v", body["state"], body)
	}
	prog := body["progress"].(map[string]any)
	if prog["done"].(float64) != 2 || prog["total"].(float64) != 2 || prog["remote"] != 0.0 {
		t.Errorf("progress %v, want 2/2 and remote 0", prog)
	}
	result := body["result"].(map[string]any)
	designs := result["designs"].([]any)
	if len(designs) != 2 {
		t.Errorf("%d design rows, want 2", len(designs))
	}
	if frontier := result["frontier"].([]any); len(frontier) == 0 {
		t.Error("empty frontier")
	}
}

// TestSweepSimsCountOnlyLocalCells checks wsd_sims_total: it counts the
// cells a sweep simulated, not the ones it copied from a cache twin, for
// an apps sweep and a scenario sweep alike.
func TestSweepSimsCountOnlyLocalCells(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"apps", `{"apps":["djpeg","lu"],"scale":"tiny","max_points":8}`},
		{"scenario", `{"max_points":8,"scenario":{"scenario":"v1","scale":"tiny","workload":{"name":"djpeg"}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t)
			sweepResult(t, ts.URL, tc.body)
			p := srv.exp.LastProgress()
			if p.Reused == 0 {
				t.Fatalf("sweep: %+v, want copied cells", p)
			}
			// The job reads done just before the pool counts its
			// simulations, and the job itself last.
			waitUntil(t, "the sweep counted", func() bool { return srv.counter(&srv.metrics.jobsCompleted) == 1 })
			completed, failed := srv.counter(&srv.metrics.simsCompleted), srv.counter(&srv.metrics.simsFailed)
			local := uint64(p.Simulated - p.Reused)
			if completed+failed != local || failed != uint64(p.Failed) {
				t.Errorf("sims completed %d, failed %d; want %d simulated of which %d failed (progress %+v)",
					completed, failed, local, p.Failed, p)
			}
		})
	}
}

// TestCacheLimitKeepsSweepSims: a cold sweep on a server whose cache
// holds one cell counts as many completed simulations in wsd_sims_total,
// and answers the same result, as on an unbounded server. Evicting a
// cell while the sweep runs does not take its run from the sweep's twins.
func TestCacheLimitKeepsSweepSims(t *testing.T) {
	const body = `{"suite":"spec2000","scale":"tiny","max_points":8}`
	var (
		sims    [2]uint64
		results [2]string
	)
	for i, opts := range [][]Option{nil, {WithCacheLimit(1)}} {
		srv, ts := newTestServer(t, opts...)
		results[i] = sweepResult(t, ts.URL, body)
		waitUntil(t, "the sweep counted", func() bool { return srv.counter(&srv.metrics.jobsCompleted) == 1 })
		sims[i] = srv.counter(&srv.metrics.simsCompleted)
	}
	if sims[0] != sims[1] {
		t.Errorf("%d simulations completed under a one-cell cache, %d unbounded", sims[1], sims[0])
	}
	if results[0] != results[1] {
		t.Errorf("results differ:\none-cell cache %s\nunbounded      %s", results[1], results[0])
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET: status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE: status %d, want 404", del.StatusCode)
	}
}

// TestClusterRoutesGone: the /v1/cluster/* paths of the removed
// multi-daemon sweep protocol answer 404 to any method, like every path
// the daemon does not serve.
func TestClusterRoutesGone(t *testing.T) {
	_, ts := newTestServer(t)
	for _, ep := range []string{"execute", "register", "heartbeat", "deregister", "workers"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, err := http.NewRequest(method, ts.URL+"/v1/cluster/"+ep, strings.NewReader(`{"id":"w1"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s /v1/cluster/%s: status %d, want 404", method, ep, resp.StatusCode)
			}
		}
	}
}

// TestJobRegistryForgetsOldestFinished: the registry keeps at most
// maxFinishedJobs finished jobs. After one more finishes, the oldest
// finished id answers 404 to GET and DELETE, while a running job older
// than all of them is still served.
func TestJobRegistryForgetsOldestFinished(t *testing.T) {
	srv, ts := newTestServer(t)
	running := srv.jobs.add(&job{kind: jobSweep, state: stateRunning})
	var ids []string
	for range maxFinishedJobs + 1 {
		jb := &job{kind: jobSweep, state: stateQueued}
		ids = append(ids, srv.jobs.add(jb))
		jb.finish(nil, nil, false)
	}
	status := func(method, id string) int {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		if code := status(method, ids[0]); code != http.StatusNotFound {
			t.Errorf("%s of the oldest finished job: status %d, want 404", method, code)
		}
	}
	for _, id := range []string{running, ids[1], ids[maxFinishedJobs]} {
		if code := status(http.MethodGet, id); code != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", id, code)
		}
	}
}

func TestJobCancel(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/v1/sweeps", `{"suite":"mediabench","scale":"medium","max_points":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	accepted := decode[struct {
		ID string `json:"id"`
	}](t, resp)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+accepted.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusAccepted {
		t.Errorf("DELETE: status %d, want 202", del.StatusCode)
	}
	body := pollJob(t, ts.URL, accepted.ID)
	// The cancel races the sweep: cancelled normally, done if the sweep
	// won. Either is a terminal, consistent state.
	if s := body["state"]; s != stateCancelled && s != stateDone {
		t.Errorf("state %v after cancel, want cancelled or done", s)
	}
}

// TestQueueFullBackpressure fills the worker pool and the admission queue
// with parked jobs (the deterministic test hook), then proves a new run
// is rejected with 429 + Retry-After rather than queued without bound.
func TestQueueFullBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, WithWorkers(1), WithQueueDepth(1))
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	srv.queue <- &job{block: release} // parked by the single worker
	srv.queue <- &job{block: release} // fills the depth-1 queue

	resp := post(t, ts.URL+"/v1/runs", `{"workload":"fft"}`)
	apiErr := errEnvelope(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", resp.StatusCode, apiErr)
	}
	if apiErr.Code != "queue_full" {
		t.Errorf("error code %q, want queue_full", apiErr.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want 2", ra)
	}

	// Sweeps hit the same admission control.
	resp = post(t, ts.URL+"/v1/sweeps", `{"suite":"mediabench","max_points":1}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("sweep status %d, want 429", resp.StatusCode)
	}

	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, metricsResp)
	if !strings.Contains(text, "wsd_admission_rejected_total 2") {
		t.Errorf("metrics missing rejection count:\n%s", grepMetric(text, "wsd_admission_rejected"))
	}

	close(release)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// grepMetric extracts the lines mentioning a metric, for focused failure
// messages.
func grepMetric(text, name string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/v1/runs", `{"workload":"fft"}`).Body.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	text := readAll(t, resp)
	for _, want := range []string{
		`wsd_http_requests_total{path="POST /v1/runs",method="POST",code="200"} 1`,
		`wsd_http_request_duration_seconds_count{path="POST /v1/runs"} 1`,
		`wsd_sims_total{outcome="completed"} 1`,
		"wsd_queue_depth",
		"wsd_queue_capacity",
		"wsd_workers_busy",
		"wsd_cache_hits_total",
		"wsd_cache_entries 1",
		"wsd_singleflight_shared_total",
		`role="single"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q; related lines:\n%s", want, grepMetric(text, strings.SplitN(want, "{", 2)[0]))
		}
	}
}

func TestOptionValidation(t *testing.T) {
	cases := map[string][]Option{
		"zero workers":    {WithWorkers(0)},
		"zero queue":      {WithQueueDepth(0)},
		"zero timeout":    {WithRequestTimeout(0)},
		"zero cacheLimit": {WithCacheLimit(0)},
		"empty journal":   {WithJournal("", false)},
	}
	for name, opts := range cases {
		if _, err := New(opts...); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}
