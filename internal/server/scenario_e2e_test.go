package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"wavescalar/internal/explore"
	"wavescalar/internal/scenario"
	"wavescalar/internal/sim"
)

// scenarioDoc is a two-phase scenario exercising inheritance (warm
// inherits the top-level workload) and a per-phase workload override —
// the shape the DSL exists for.
const scenarioDoc = `{
  "scenario": "v1",
  "name": "tiled-study",
  "workload": {"gemm": {"order": "os", "tm": 4, "tn": 4, "tk": 4}},
  "scale": "tiny",
  "threads": [1],
  "phases": [
    {"name": "warm"},
    {"name": "conv", "workload": {"name": "conv-ws-4x4x2"}}
  ]
}`

func postScenario(t *testing.T, baseURL, doc string) scenarioResponse {
	t.Helper()
	resp := post(t, baseURL+"/v1/scenarios", doc)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/scenarios: status %d", resp.StatusCode)
	}
	return decode[scenarioResponse](t, resp)
}

// TestScenarioStore: the content-addressed store end to end — create,
// dedup on re-post (any formatting), fetch by digest, and the rejection
// paths.
func TestScenarioStore(t *testing.T) {
	_, ts := newTestServer(t)

	first := postScenario(t, ts.URL, scenarioDoc)
	if !first.Created || len(first.Digest) != 64 || first.Phases != 2 || first.Name != "tiled-study" {
		t.Fatalf("first post: %+v", first)
	}

	// Re-posting the same document reformatted (field order shuffled via
	// a round-trip through a map) must dedup: same digest, created=false.
	var m map[string]any
	if err := json.Unmarshal([]byte(scenarioDoc), &m); err != nil {
		t.Fatal(err)
	}
	reformatted, err := json.MarshalIndent(m, "  ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	again := postScenario(t, ts.URL, string(reformatted))
	if again.Created || again.Digest != first.Digest {
		t.Errorf("re-post: %+v, want created=false digest %s", again, first.Digest)
	}

	// Fetch by digest round-trips the document.
	resp, err := http.Get(ts.URL + "/v1/scenarios/" + first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	fetched := decode[struct {
		Digest   string            `json:"digest"`
		Scenario scenario.Scenario `json:"scenario"`
	}](t, resp)
	if fetched.Digest != first.Digest || fetched.Scenario.Name != "tiled-study" {
		t.Errorf("fetched %+v", fetched)
	}
	if fetched.Scenario.Digest() != first.Digest {
		t.Error("fetched scenario re-digests differently")
	}

	// Unknown digest → 404 envelope.
	resp, err = http.Get(ts.URL + "/v1/scenarios/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if apiErr := errEnvelope(t, resp); resp.StatusCode != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Errorf("unknown digest: status %d code %q", resp.StatusCode, apiErr.Code)
	}

	// Malformed documents → 400 with the scenario parser's diagnosis.
	for name, doc := range map[string]string{
		"wrong version": `{"scenario":"v2","workload":{"name":"fft"}}`,
		"unknown field": `{"scenario":"v1","workload":{"name":"fft"},"bogus":1}`,
		"no workload":   `{"scenario":"v1"}`,
		"not json":      `nope`,
	} {
		resp := post(t, ts.URL+"/v1/scenarios", doc)
		if apiErr := errEnvelope(t, resp); resp.StatusCode != http.StatusBadRequest || apiErr.Code != "bad_request" {
			t.Errorf("%s: status %d code %q, want 400 bad_request", name, resp.StatusCode, apiErr.Code)
		}
	}
}

// TestScenarioStoreWarmRestart: scenarios posted before a restart must be
// servable by digest after it, and re-posting must still dedup.
func TestScenarioStoreWarmRestart(t *testing.T) {
	store := filepath.Join(t.TempDir(), "wsd.scenarios")

	srv1, err := New(WithScenarioStore(store))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	first := postScenario(t, ts1.URL, scenarioDoc)
	if !first.Created {
		t.Fatalf("first post: %+v", first)
	}
	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(WithScenarioStore(store))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()

	resp, err := http.Get(ts2.URL + "/v1/scenarios/" + first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after restart: status %d, want 200", resp.StatusCode)
	}
	again := postScenario(t, ts2.URL, scenarioDoc)
	if again.Created || again.Digest != first.Digest {
		t.Errorf("re-post after restart: %+v, want created=false digest %s", again, first.Digest)
	}
}

// TestScenarioRunMatchesDirect is the API-equivalence acceptance test: a
// scenario executed through POST /v1/runs (by stored digest) must produce
// the same cell keys and the same results as resolving and running the
// phases directly through the Go API.
func TestScenarioRunMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t)
	stored := postScenario(t, ts.URL, scenarioDoc)

	resp := post(t, ts.URL+"/v1/runs", `{"scenario":"`+stored.Digest+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario run: status %d", resp.StatusCode)
	}
	got := decode[scenarioRunResponse](t, resp)
	if got.Scenario != stored.Digest || len(got.Phases) != 2 || got.Cached {
		t.Fatalf("scenario run: %+v", got)
	}

	// Direct Go invocation of the same document: parse, resolve phases,
	// run each through a fresh explorer.
	scn, err := scenario.Parse([]byte(scenarioDoc))
	if err != nil {
		t.Fatal(err)
	}
	phases, err := scn.ResolvePhases()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := explore.New()
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	for i, ph := range phases {
		cfg := sim.Baseline(sim.BaselineArch())
		cell, p, err := exp.RunOne(context.Background(), cfg, ph.Workload, ph.Scale, ph.Threads)
		if err != nil || p.CacheHits != 0 {
			t.Fatalf("direct phase %s: %+v err=%v", ph.Name, p, err)
		}
		api := got.Phases[i]
		if api.Phase != ph.Name || api.Key != cell.Key {
			t.Errorf("phase %d: API (%s, %s) vs direct (%s, %s) — key schema drift",
				i, api.Phase, api.Key, ph.Name, cell.Key)
		}
		if api.Result.AIPC != cell.AIPC || api.Result.Cycles != cell.Cycles || api.Result.App != cell.App {
			t.Errorf("phase %s: API result %+v differs from direct cell %+v", ph.Name, api.Result, cell)
		}
	}

	// The override phase has the key of a plain run of its workload.
	plainKey := explore.CellKey(sim.Baseline(sim.BaselineArch()), "conv-ws-4x4x2", phases[1].Scale, phases[1].Threads)
	if got.Phases[1].Key != plainKey {
		t.Errorf("override phase key %s, want the plain run's %s", got.Phases[1].Key, plainKey)
	}

	// Re-running the scenario is a pure cache hit, phase by phase.
	resp = post(t, ts.URL+"/v1/runs", `{"scenario":"`+stored.Digest+`"}`)
	rerun := decode[scenarioRunResponse](t, resp)
	if !rerun.Cached {
		t.Errorf("re-run not fully cached: %+v", rerun)
	}
	for i, ph := range rerun.Phases {
		if !ph.Cached || ph.Key != got.Phases[i].Key || ph.Result != got.Phases[i].Result {
			t.Errorf("re-run phase %d differs: %+v vs %+v", i, ph, got.Phases[i])
		}
	}
}

// TestScenarioRunValidation: the request-shape rules around the scenario
// field of POST /v1/runs.
func TestScenarioRunValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		wantCode   int
		wantSlug   string
	}{
		{"unknown digest", `{"scenario":"feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"}`,
			http.StatusNotFound, "not_found"},
		{"scenario plus workload", `{"workload":"fft","scenario":{"scenario":"v1","workload":{"name":"fft"}}}`,
			http.StatusBadRequest, "bad_request"},
		{"scenario plus threads", `{"threads":2,"scenario":{"scenario":"v1","workload":{"name":"fft"}}}`,
			http.StatusBadRequest, "bad_request"},
		{"malformed inline", `{"scenario":{"scenario":"v1"}}`,
			http.StatusBadRequest, "bad_request"},
		{"wrong inline version", `{"scenario":{"scenario":"v9","workload":{"name":"fft"}}}`,
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+"/v1/runs", tc.body)
			apiErr := errEnvelope(t, resp)
			if resp.StatusCode != tc.wantCode || apiErr.Code != tc.wantSlug {
				t.Errorf("status %d code %q, want %d %s (%s)",
					resp.StatusCode, apiErr.Code, tc.wantCode, tc.wantSlug, apiErr.Message)
			}
		})
	}

	// An inline scenario needs no prior POST /v1/scenarios.
	resp := post(t, ts.URL+"/v1/runs", `{"scenario":{"scenario":"v1","workload":{"name":"fft"}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline scenario run: status %d", resp.StatusCode)
	}
	inline := decode[scenarioRunResponse](t, resp)
	if len(inline.Phases) != 1 || inline.Phases[0].Result.App != "fft" {
		t.Errorf("inline scenario run: %+v", inline)
	}
}

// TestScenarioSweepValidation: scenario sweeps must be uniform across
// phases and exclusive with the plain sweep axes.
func TestScenarioSweepValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"scenario plus suite", `{"suite":"tiled","scenario":{"scenario":"v1","workload":{"name":"fft"}}}`},
		{"scenario plus scale", `{"scale":"tiny","scenario":{"scenario":"v1","workload":{"name":"fft"}}}`},
		{"non-uniform phases", `{"scenario":{"scenario":"v1","workload":{"name":"fft"},
			"phases":[{"name":"a"},{"name":"b","threads":[4]}]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+"/v1/sweeps", tc.body)
			apiErr := errEnvelope(t, resp)
			if resp.StatusCode != http.StatusBadRequest || apiErr.Code != "bad_request" {
				t.Errorf("status %d code %q (%s), want 400 bad_request", resp.StatusCode, apiErr.Code, apiErr.Message)
			}
		})
	}
}

// TestScenarioSweepMatchesApps: a scenario sweep must be byte-identical
// to the equivalent plain apps sweep — the scenario is sugar over the
// same cells, not a new result space.
func TestScenarioSweepMatchesApps(t *testing.T) {
	const scnBody = `{"max_points":4,"scenario":{"scenario":"v1","scale":"tiny","threads":[1],"phases":[
		{"name":"a","workload":{"gemm":{"order":"os","tm":4,"tn":4,"tk":4}}},
		{"name":"b","workload":{"name":"conv-ws-4x4x2"}}]}}`
	const appsBody = `{"apps":["gemm-os-4x4x4","conv-ws-4x4x2"],"scale":"tiny","max_points":4}`

	_, ts := newTestServer(t)
	want := sweepResult(t, ts.URL, appsBody)
	_, ts2 := newTestServer(t)
	got := sweepResult(t, ts2.URL, scnBody)
	if string(got) != string(want) {
		t.Errorf("scenario sweep differs from apps sweep:\n%s\nvs\n%s", got, want)
	}
}
