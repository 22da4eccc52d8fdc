package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestE2EConcurrentIdenticalRuns is the acceptance test for the serving
// model: eight concurrent identical POST /v1/runs must all receive
// byte-identical stats while the simulation executes exactly once
// (singleflight collapses in-flight duplicates, the cache absorbs
// stragglers), and /metrics must reflect the dedup and the cache hits.
func TestE2EConcurrentIdenticalRuns(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wsd.jsonl")
	srv, err := New(WithWorkers(4), WithJournal(journal, false))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 8
	body := `{"workload":"fft","scale":"tiny","threads":2}`
	type reply struct {
		status int
		parsed struct {
			Key    string          `json:"key"`
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result"`
		}
	}
	replies := make([]reply, n)
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
			replies[i].status = resp.StatusCode
			if err := json.NewDecoder(resp.Body).Decode(&replies[i].parsed); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if r.parsed.Key != replies[0].parsed.Key {
			t.Errorf("request %d: key %s != %s", i, r.parsed.Key, replies[0].parsed.Key)
		}
		if string(r.parsed.Result) != string(replies[0].parsed.Result) {
			t.Errorf("request %d: result differs:\n%s\nvs\n%s", i, r.parsed.Result, replies[0].parsed.Result)
		}
	}

	// The simulation ran exactly once; everyone else shared it. The split
	// between singleflight followers and cache hits depends on timing, but
	// together they account for the other n-1 requests.
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, metricsResp)
	if !strings.Contains(text, `wsd_sims_total{outcome="completed"} 1`) {
		t.Errorf("simulation did not run exactly once:\n%s", grepMetric(text, "wsd_sims_total"))
	}
	stats := srv.exp.Cache().Stats()
	srv.metrics.mu.Lock()
	shared := srv.metrics.dedupShared
	srv.metrics.mu.Unlock()
	if shared+stats.Hits != n-1 {
		t.Errorf("dedup %d + cache hits %d != %d", shared, stats.Hits, n-1)
	}
	if !strings.Contains(text, "wsd_cache_hits_total") {
		t.Error("metrics missing wsd_cache_hits_total")
	}

	// Graceful shutdown must not drop the completed result: the journal
	// holds the cell, and a warm restart serves it without simulating.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), replies[0].parsed.Key) {
		t.Errorf("journal does not contain cell %s", replies[0].parsed.Key)
	}

	warm, err := New(WithJournal(journal, true))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Resumed() == 0 {
		t.Fatal("warm restart replayed nothing")
	}
	ts2 := httptest.NewServer(warm)
	defer ts2.Close()
	resp, err := http.Post(ts2.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	warmReply := decode[struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}](t, resp)
	if !warmReply.Cached {
		t.Error("warm restart did not serve from cache")
	}
	if string(warmReply.Result) != string(replies[0].parsed.Result) {
		t.Errorf("warm result differs:\n%s\nvs\n%s", warmReply.Result, replies[0].parsed.Result)
	}
}

// TestGracefulShutdownDrains proves the three shutdown guarantees: an
// in-flight simulation drains and its waiter gets the result, a
// queued-but-unstarted job is rejected, and new admissions get 503.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, err := New(WithWorkers(1), WithQueueDepth(4), WithRequestTimeout(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		status int
		body   map[string]json.RawMessage
	}
	fire := func(body string, out chan<- result) {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			out <- result{}
			return
		}
		defer resp.Body.Close()
		var parsed map[string]json.RawMessage
		json.NewDecoder(resp.Body).Decode(&parsed)
		out <- result{resp.StatusCode, parsed}
	}

	// First run occupies the single worker; wait until it is actually
	// executing so the second run is queued behind it.
	firstCh := make(chan result, 1)
	go fire(`{"workload":"fft","scale":"tiny"}`, firstCh)
	var first result
	gotFirst := false
	deadline := time.Now().Add(30 * time.Second)
	for srv.busy.Load() == 0 {
		select {
		case first = <-firstCh:
			gotFirst = true // sim finished before we observed it in-flight
		default:
		}
		if gotFirst || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	secondCh := make(chan result, 1)
	go fire(`{"workload":"lu","scale":"tiny"}`, secondCh)
	for len(srv.queue) == 0 && srv.busy.Load() > 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// In-flight work drained: the first client holds a real result.
	if !gotFirst {
		first = <-firstCh
	}
	if first.status != http.StatusOK {
		t.Errorf("in-flight run: status %d, want 200 (%s)", first.status, first.body["error"])
	} else if len(first.body["result"]) == 0 {
		t.Error("in-flight run: empty result")
	}

	// The queued-but-unstarted run was rejected — unless the worker got to
	// it before Shutdown flipped the flag, in which case it completed.
	second := <-secondCh
	if second.status != http.StatusServiceUnavailable && second.status != http.StatusOK {
		t.Errorf("queued run: status %d, want 503 (rejected) or 200 (raced ahead)", second.status)
	}

	// Admissions are closed: new (uncached) work and readiness both report
	// draining. (Cache hits are still served during drain, by design.)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"workload":"fft","threads":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown run: status %d, want 503", resp.StatusCode)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	payload := decode[map[string]any](t, health)
	if health.StatusCode != http.StatusServiceUnavailable || payload["status"] != "draining" {
		t.Errorf("healthz during drain: %d %v", health.StatusCode, payload["status"])
	}
}

// TestSingleflightFollowersSurviveLeaderDisconnect: the leader's HTTP
// request is cancelled while the simulation runs; followers still get the
// result because execution is tied to the server, not the request.
func TestSingleflightFollowersSurviveLeaderDisconnect(t *testing.T) {
	srv, err := New(WithWorkers(1), WithRequestTimeout(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	body := `{"workload":"fft","scale":"tiny"}`
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	leaderDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	done := false
	for srv.busy.Load() == 0 && !done {
		select {
		case err := <-leaderDone:
			done = true
			if err == nil {
				t.Log("leader finished before we could disconnect it")
			}
		default:
			time.Sleep(time.Millisecond)
		}
		if time.Now().After(deadline) {
			t.Fatal("leader's run never started")
		}
	}
	cancelLeader()
	if !done {
		<-leaderDone
	}

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	follower := decode[struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}](t, resp)
	if resp.StatusCode != http.StatusOK || len(follower.Result) == 0 {
		t.Fatalf("follower after leader disconnect: status %d, result %s", resp.StatusCode, follower.Result)
	}
}
