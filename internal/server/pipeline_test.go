package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests of the one request pipeline (Server.cells): what scenario runs
// acquire by sharing the plain run's code, and the branches no test
// reached while there were three copies of it.

// waitUntil polls cond (an event published by another goroutine through a
// lock or an atomic) until it holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *Server) counter(c *uint64) uint64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	return *c
}

// parkWorker occupies one pool worker until the returned release runs.
func parkWorker(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	block := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(block) }) }
	t.Cleanup(release)
	srv.queue <- &job{block: block}
	waitUntil(t, "the worker to park", func() bool { return len(srv.queue) == 0 })
	return release
}

func scenarioBody(workloads ...string) string {
	phases := make([]string, len(workloads))
	for i, w := range workloads {
		phases[i] = fmt.Sprintf(`{"name":"p%d","workload":{"name":%q}}`, i, w)
	}
	return `{"scenario":{"scenario":"v1","scale":"tiny","threads":[1],"phases":[` + strings.Join(phases, ",") + `]}}`
}

// postRaw posts a JSON body and returns the status plus the exact
// response bytes — the unit the byte-identity guarantees are stated in.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestConcurrentIdenticalScenarioRuns: the daemon's cost model — N
// identical in-flight requests cost one simulation — holds for scenario
// runs as it does for plain ones: eight concurrent posts of one scenario
// cost one simulation and one journal record per distinct phase key.
func TestConcurrentIdenticalScenarioRuns(t *testing.T) {
	for _, workloads := range [][]string{{"fft"}, {"fft", "lu", "gzip"}} {
		t.Run(fmt.Sprintf("%d-phase", len(workloads)), func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "wsd.jsonl")
			srv, err := New(WithWorkers(4), WithJournal(journal, false))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			defer srv.Close()

			const n = 8
			body := scenarioBody(workloads...)
			type phase struct {
				Key    string          `json:"key"`
				Result json.RawMessage `json:"result"`
			}
			statuses := make([]int, n)
			replies := make([][]phase, n)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					statuses[i] = resp.StatusCode
					var parsed struct {
						Phases []phase `json:"phases"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
						t.Error(err)
					}
					replies[i] = parsed.Phases
				}(i)
			}
			close(start)
			wg.Wait()

			for i := range replies {
				if statuses[i] != http.StatusOK || len(replies[i]) != len(workloads) {
					t.Fatalf("request %d: status %d, %d phases", i, statuses[i], len(replies[i]))
				}
				for p, ph := range replies[i] {
					if ph.Key != replies[0][p].Key || !bytes.Equal(ph.Result, replies[0][p].Result) {
						t.Errorf("request %d phase %d: %s %s differs from %s %s",
							i, p, ph.Key, ph.Result, replies[0][p].Key, replies[0][p].Result)
					}
				}
			}
			if got := srv.counter(&srv.metrics.simsCompleted); got != uint64(len(workloads)) {
				t.Errorf("%d simulations completed, want %d (one per distinct phase key)", got, len(workloads))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.Count(data, []byte{'\n'}); got != len(workloads) {
				t.Errorf("journal holds %d records, want %d:\n%s", got, len(workloads), data)
			}
		})
	}
}

// TestWaitTimeout reaches the wait's deadline branch: on a daemon whose
// request timeout is a millisecond, a cold run and a cold scenario get 504
// while the work stays queued, and once it completes the retry is a cache
// hit (it never waits) carrying the result a cold run on another daemon
// produces.
func TestWaitTimeout(t *testing.T) {
	for name, tc := range map[string]struct {
		body  string
		cells uint64
	}{
		"run":      {`{"workload":"fft"}`, 1},
		"scenario": {scenarioBody("fft", "lu"), 2},
	} {
		t.Run(name, func(t *testing.T) {
			srv, ts := newTestServer(t, WithWorkers(1), WithRequestTimeout(time.Millisecond))
			release := parkWorker(t, srv)

			resp := post(t, ts.URL+"/v1/runs", tc.body)
			if apiErr := errEnvelope(t, resp); resp.StatusCode != http.StatusGatewayTimeout || apiErr.Code != "timeout" {
				t.Fatalf("timed-out wait: status %d, error %+v; want 504 timeout", resp.StatusCode, apiErr)
			}
			release()
			waitUntil(t, "the abandoned work to complete", func() bool { return srv.counter(&srv.metrics.simsCompleted) == tc.cells })

			status, retry := postRaw(t, ts.URL+"/v1/runs", tc.body)
			_, ref := newTestServer(t)
			_, cold := postRaw(t, ref.URL+"/v1/runs", tc.body)
			want := bytes.ReplaceAll(cold, []byte(`"cached":false`), []byte(`"cached":true`))
			if status != http.StatusOK || !bytes.Contains(cold, []byte(`"cached":false`)) || !bytes.Equal(retry, want) {
				t.Errorf("retry after completion: status %d\n%s\nwant the cold response with cached true:\n%s", status, retry, cold)
			}
		})
	}
}

// TestScenarioRepeatedKeyCached: a scenario whose phases repeat a cell
// simulates it once and reports the repeat cached.
func TestScenarioRepeatedKeyCached(t *testing.T) {
	srv, ts := newTestServer(t)
	resp := post(t, ts.URL+"/v1/runs", scenarioBody("fft", "fft"))
	run := decode[scenarioRunResponse](t, resp)
	if resp.StatusCode != http.StatusOK || len(run.Phases) != 2 {
		t.Fatalf("status %d: %+v", resp.StatusCode, run)
	}
	if run.Cached || run.Phases[0].Cached || !run.Phases[1].Cached {
		t.Errorf("cached flags: scenario %v, phases %v %v; want false, false true",
			run.Cached, run.Phases[0].Cached, run.Phases[1].Cached)
	}
	if run.Phases[0].Key != run.Phases[1].Key || run.Phases[0].Result != run.Phases[1].Result {
		t.Errorf("repeat differs from the first occurrence: %+v", run.Phases)
	}
	if got := srv.counter(&srv.metrics.simsCompleted); got != 1 {
		t.Errorf("%d simulations, want 1", got)
	}
}

// TestCopiedRunIsNotASimulation: two runs of djpeg whose configurations
// differ only in the L2 size are twins, so the second copies the first's
// run instead of simulating. wsd_sims_total counts one completed
// simulation, and the copied answer is byte-identical to the one a fresh
// daemon simulates for it.
func TestCopiedRunIsNotASimulation(t *testing.T) {
	const first = `{"workload":"djpeg","scale":"tiny","config":{"l2_mb":1}}`
	const twin = `{"workload":"djpeg","scale":"tiny","config":{"l2_mb":4}}`
	srv, ts := newTestServer(t)
	if status, body := postRaw(t, ts.URL+"/v1/runs", first); status != http.StatusOK {
		t.Fatalf("first run: status %d: %s", status, body)
	}
	status, copied := postRaw(t, ts.URL+"/v1/runs", twin)
	if status != http.StatusOK {
		t.Fatalf("twin run: status %d: %s", status, copied)
	}
	if got := srv.counter(&srv.metrics.simsCompleted); got != 1 {
		t.Errorf("%d simulations completed, want 1: the twin's run is a copy", got)
	}
	fresh, freshTS := newTestServer(t)
	if _, direct := postRaw(t, freshTS.URL+"/v1/runs", twin); !bytes.Equal(copied, direct) {
		t.Errorf("copied answer differs from a simulated one:\ncopied    %s\nsimulated %s", copied, direct)
	}
	if got := fresh.counter(&fresh.metrics.simsCompleted); got != 1 {
		t.Errorf("fresh daemon: %d simulations completed, want 1", got)
	}
}

// TestShutdownCompletesEveryLedCall: a queued job that Shutdown overtakes
// resolves every call it led — the request that led them and the
// followers waiting on its second and third cells all get 503, none hangs.
func TestShutdownCompletesEveryLedCall(t *testing.T) {
	srv, ts := newTestServer(t, WithWorkers(1), WithQueueDepth(4))
	release := parkWorker(t, srv)

	statuses := make(chan int, 3)
	fire := func(body string) {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go fire(scenarioBody("fft", "lu", "gzip"))
	waitUntil(t, "the scenario's job to queue", func() bool { return len(srv.queue) == 1 })
	go fire(`{"workload":"lu"}`)
	go fire(`{"workload":"gzip"}`)
	waitUntil(t, "both followers to join", func() bool { return srv.counter(&srv.metrics.dedupShared) == 2 })

	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Shutdown(context.Background()) }()
	waitUntil(t, "admissions to close", srv.isClosing)
	release()
	for i := 0; i < 3; i++ {
		if status := <-statuses; status != http.StatusServiceUnavailable {
			t.Errorf("waiter %d: status %d, want 503", i, status)
		}
	}
	if err := <-shutdown; err != nil {
		t.Fatal(err)
	}
	if got := srv.counter(&srv.metrics.simsCancelled); got != 3 {
		t.Errorf("%d cells counted cancelled, want 3", got)
	}
}

// TestFollowerTakesNoSlot: with the depth-1 queue full — held by the
// leader's queued job — an identical request still joins and is answered:
// it leads nothing, so it is never admitted.
func TestFollowerTakesNoSlot(t *testing.T) {
	srv, ts := newTestServer(t, WithWorkers(1), WithQueueDepth(1))
	release := parkWorker(t, srv)

	statuses := make(chan int, 2)
	fire := func() {
		resp := post(t, ts.URL+"/v1/runs", `{"workload":"fft"}`)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go fire()
	waitUntil(t, "the leader's job to fill the queue", func() bool { return len(srv.queue) == 1 })
	go fire()
	waitUntil(t, "the follower to join", func() bool { return srv.counter(&srv.metrics.dedupShared) == 1 })
	release()
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("request %d: status %d, want 200", i, status)
		}
	}
	if full := srv.counter(&srv.metrics.rejectedFull); full != 0 {
		t.Errorf("%d queue rejections, want none", full)
	}
}

// postEndpoints is every route that reads a request body.
var postEndpoints = []string{"/v1/runs", "/v1/sweeps", "/v1/scenarios"}

// TestOversizeBodyRejected: a JSON body over the 1 MiB ceiling is refused
// with 413 too_large on every POST endpoint, including a body whose first
// JSON value is small and whose excess comes after it.
func TestOversizeBodyRejected(t *testing.T) {
	_, ts := newTestServer(t)
	for name, big := range map[string]string{
		"long value":     `{"workload":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
		"trailing space": `{"workload":"nosuch"}` + strings.Repeat(" ", 2<<20),
	} {
		for _, path := range postEndpoints {
			resp := post(t, ts.URL+path, big)
			if apiErr := errEnvelope(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge || apiErr.Code != "too_large" {
				t.Errorf("%s, %s: status %d, error %+v; want 413 too_large", name, path, resp.StatusCode, apiErr)
			}
		}
	}
}

// TestMalformedBodyAnswersPinned: reading the whole body before decoding
// it changes no answer to a malformed body. The answers are the daemon's
// from when the decoder read the body itself: an empty or truncated body,
// an unknown field, a wrong type, and bytes after the first JSON value
// (still ignored on the decoding endpoints).
func TestMalformedBodyAnswersPinned(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		path, body string
		status     int
		want       string
	}{
		{"/v1/runs", "", 400, `{"error":{"code":"bad_request","message":"bad request body: EOF"}}`},
		{"/v1/runs", `{"workload":`, 400, `{"error":{"code":"bad_request","message":"bad request body: unexpected EOF"}}`},
		{"/v1/runs", `{"workload":"lu"`, 400, `{"error":{"code":"bad_request","message":"bad request body: unexpected EOF"}}`},
		{"/v1/runs", `{"workload":"lu","nosuch":1}`, 400, `{"error":{"code":"bad_request","message":"bad request body: json: unknown field \"nosuch\""}}`},
		{"/v1/runs", `{"threads":"x"}`, 400, `{"error":{"code":"bad_request","message":"bad request body: json: cannot unmarshal string into Go struct field runRequest.threads of type int"}}`},
		{"/v1/runs", `[1,2]`, 400, `{"error":{"code":"bad_request","message":"bad request body: json: cannot unmarshal array into Go value of type server.runRequest"}}`},
		{"/v1/runs", `{"workload":"nosuch"} trailing`, 404, `{"error":{"code":"not_found","message":"workload: unknown workload \"nosuch\" (valid suites: spec2000, mediabench, splash2, tiled; tiled kernels follow gemm-<os|as|bs>-TmxTnxTk or conv-<ws|os|is>-TxxTyxTc)"}}`},
		{"/v1/runs", `{"workload":"lu","scale":"enormous"}{}`, 400, `{"error":{"code":"bad_request","message":"unknown scale \"enormous\" (tiny, small, medium)"}}`},
		{"/v1/runs", `{"workload":"gzip","threads":4}`, 400, `{"error":{"code":"bad_request","message":"thread count 4 outside [1, 1], the limit of \"gzip\""}}`},
		{"/v1/sweeps", "", 400, `{"error":{"code":"bad_request","message":"bad request body: EOF"}}`},
		{"/v1/sweeps", `{"apps":[`, 400, `{"error":{"code":"bad_request","message":"bad request body: unexpected EOF"}}`},
		{"/v1/sweeps", `{"nosuch":1}`, 400, `{"error":{"code":"bad_request","message":"bad request body: json: unknown field \"nosuch\""}}`},
		{"/v1/sweeps", `{"apps":"fft"}`, 400, `{"error":{"code":"bad_request","message":"bad request body: json: cannot unmarshal string into Go struct field sweepRequest.apps of type []string"}}`},
		{"/v1/sweeps", `{"suite":"nosuch"}{}`, 400, `{"error":{"code":"bad_request","message":"unknown suite \"nosuch\" (spec2000, mediabench, splash2, tiled)"}}`},
		{"/v1/scenarios", "", 400, `{"error":{"code":"bad_request","message":"scenario: bad scenario: EOF"}}`},
		{"/v1/scenarios", `{"scenario":`, 400, `{"error":{"code":"bad_request","message":"scenario: bad scenario: unexpected EOF"}}`},
		{"/v1/scenarios", `{"scenario":"v1"} x`, 400, `{"error":{"code":"bad_request","message":"scenario: bad scenario: trailing data after scenario object"}}`},
	} {
		// Twice: a refused /v1/runs body is never memoized.
		for i := 0; i < 2; i++ {
			status, got := postRaw(t, ts.URL+tc.path, tc.body)
			if status != tc.status || string(got) != tc.want+"\n" {
				t.Errorf("%s %q: %d %s; want %d %s", tc.path, tc.body, status, got, tc.status, tc.want)
			}
		}
	}
}

// TestRunOverThreadLimitRefused: a /v1/runs thread count above the
// kernel's limit is refused with 400 before it becomes a cell, so nothing
// is simulated, cached or journaled for it — it was once answered 200 with
// a cached, journaled failed cell. A count at the limit still runs.
func TestRunOverThreadLimitRefused(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wsd.jsonl")
	srv, ts := newTestServer(t, WithJournal(journal, false))
	for _, body := range []string{`{"workload":"gzip","threads":4}`, `{"workload":"lu","threads":65}`} {
		if status, got := postRaw(t, ts.URL+"/v1/runs", body); status != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, status, got)
		}
	}
	if st := srv.exp.Cache().Stats(); st.Cells != 0 {
		t.Errorf("refused runs left %d cells in the cache", st.Cells)
	}
	if data, err := os.ReadFile(journal); err == nil && len(data) > 0 {
		t.Errorf("refused runs were journaled:\n%s", data)
	}
	if status, got := postRaw(t, ts.URL+"/v1/runs", `{"workload":"gzip","threads":1}`); status != http.StatusOK {
		t.Errorf("gzip at its limit: %d %s, want 200", status, got)
	}
}

// TestMetricsSkeletonGolden pins the order, names, help strings and types
// of every series on /metrics (testdata/metrics_skeleton_single.golden).
func TestMetricsSkeletonGolden(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		_, ts := newTestServer(t)
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var skeleton []string
		for _, line := range strings.Split(readAll(t, resp), "\n") {
			if strings.HasPrefix(line, "#") {
				skeleton = append(skeleton, line)
			}
		}
		want, err := os.ReadFile(filepath.Join("testdata", "metrics_skeleton_single.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(skeleton, "\n") + "\n"; got != string(want) {
			t.Errorf("HELP/TYPE skeleton drifted:\n%s\nwant:\n%s", got, want)
		}
	})
}
