package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests of the POST /v1/runs memo (runMemo): a body answered before is
// served from its stored bytes, and every such answer is the one the full
// path renders.

const memoScenarioDoc = `{"scenario":"v1","scale":"tiny","threads":[1],"phases":[` +
	`{"name":"a","workload":{"name":"lu"}},{"name":"b","workload":{"name":"fft"}},{"name":"c","workload":{"name":"lu"}}]}`

// memoScenarioDocReordered is memoScenarioDoc with its fields in another
// order; both have one digest.
const memoScenarioDocReordered = `{"phases":[{"workload":{"name":"lu"},"name":"a"},{"workload":{"name":"fft"},"name":"b"},` +
	`{"workload":{"name":"lu"},"name":"c"}],"threads":[1],"scale":"tiny","scenario":"v1"}`

// cachedFlag reads the top-level "cached" of a /v1/runs answer.
func cachedFlag(t *testing.T, body []byte) bool {
	t.Helper()
	var v struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return v.Cached
}

// TestRunMemoMatchesFirstAnswer: every spelling of a request — whitespace,
// field order, defaults written out, a scenario by digest or inline — is
// answered with the bytes of the first cached answer, however often it
// repeats. The cache's hit and miss counts after the sequence are the ones
// the daemon read before it had a memo (every memoized answer looks its
// cells up once, as the full path does).
func TestRunMemoMatchesFirstAnswer(t *testing.T) {
	srv, ts := newTestServer(t)
	created := decode[scenarioResponse](t, post(t, ts.URL+"/v1/scenarios", memoScenarioDoc))
	groups := []struct {
		name   string
		bodies []string
	}{
		{"plain", []string{
			`{"workload":"lu","scale":"tiny"}`,
			`{ "scale" : "tiny", "workload" : "lu" }`,
			`{"workload":"lu","scale":"tiny","threads":1}`,
			"\n{\"workload\":\"lu\"}\t",
		}},
		{"threads", []string{
			`{"workload":"gzip","threads":1}`,
			`{"workload":"gzip", "threads":1}`,
		}},
		{"scenario", []string{
			`{"scenario":"` + created.Digest + `"}`,
			`{ "scenario" : "` + created.Digest + `" }`,
			`{"scenario":` + memoScenarioDoc + `}`,
			`{"scenario":` + memoScenarioDocReordered + `}`,
		}},
	}
	var bodies int
	for _, g := range groups {
		status, cold := postRaw(t, ts.URL+"/v1/runs", g.bodies[0])
		if status != http.StatusOK || cachedFlag(t, cold) {
			t.Fatalf("%s: cold answer %d %s; want 200, not cached", g.name, status, cold)
		}
		var first []byte
		for round := 0; round < 3; round++ {
			for _, body := range g.bodies {
				status, got := postRaw(t, ts.URL+"/v1/runs", body)
				if status != http.StatusOK || !cachedFlag(t, got) {
					t.Fatalf("%s %q round %d: %d %s; want a cached 200", g.name, body, round, status, got)
				}
				if first == nil {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Errorf("%s %q round %d:\n%s\nwant the first cached answer\n%s", g.name, body, round, got, first)
				}
			}
		}
		bodies += len(g.bodies)
	}
	// Pinned from the daemon without a memo, over the same sequence.
	if st := srv.exp.Cache().Stats(); st.Hits != 56 || st.Misses != 6 {
		t.Errorf("cache hits %d, misses %d; want 56, 6", st.Hits, st.Misses)
	}
	if n := len(srv.memo.entries); n != bodies {
		t.Errorf("memo holds %d bodies, want %d", n, bodies)
	}
}

// TestRunMemoHonoursEviction: a memoized body whose cell the LRU dropped
// is not answered from the memo. It is simulated again and answered
// "cached":false, then true again, with the same cache counters as a
// daemon without a memo.
func TestRunMemoHonoursEviction(t *testing.T) {
	srv, ts := newTestServer(t, WithCacheLimit(1))
	const a, b = `{"workload":"lu"}`, `{"workload":"fft"}`
	var hit []byte
	for i, step := range []struct {
		body   string
		cached bool
	}{
		{a, false}, {a, true}, {a, true}, // a is memoized
		{b, false}, // evicts a
		{a, false}, {a, true}, {a, true},
	} {
		status, got := postRaw(t, ts.URL+"/v1/runs", step.body)
		if status != http.StatusOK || cachedFlag(t, got) != step.cached {
			t.Fatalf("step %d %s: %d %s; want 200 with cached %v", i, step.body, status, got, step.cached)
		}
		if step.body == a && step.cached {
			if hit == nil {
				hit = got
			} else if !bytes.Equal(got, hit) {
				t.Errorf("step %d: %s; want %s", i, got, hit)
			}
		}
	}
	if got := srv.counter(&srv.metrics.simsCompleted); got != 3 {
		t.Errorf("%d simulations, want 3 (a, b, a again)", got)
	}
	// Pinned from the daemon without a memo, over the same sequence.
	if st := srv.exp.Cache().Stats(); st.Hits != 4 || st.Misses != 6 || st.Evictions != 2 {
		t.Errorf("cache hits %d, misses %d, evictions %d; want 4, 6, 2", st.Hits, st.Misses, st.Evictions)
	}
}

// TestRunMemoBounded: the memo never holds more than memoBudget bytes
// however many distinct hit bodies arrive, keeps no entry over
// memoMaxEntry, and answers correctly across the resets that keep it
// there, with four clients storing, serving and resetting it at once.
func TestRunMemoBounded(t *testing.T) {
	srv := warmHit(t)
	// hitBody with 6 KiB plus i+1 bytes of padding before its last brace:
	// a distinct body for the same cached cell.
	padded := func(i int) string {
		return strings.TrimSuffix(hitBody, "}") + strings.Repeat(" ", 6<<10+i+1) + "}"
	}
	want := serveOnce(t, srv, "POST", "/v1/runs", hitBody)
	const clients, perClient = 4, 3 * memoBudget / (6 << 10) / 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(padded((c*perClient+i)%800))))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("client %d body %d: %d %s; want %s", c, i, rec.Code, rec.Body, want)
					return
				}
				srv.memo.mu.Lock()
				size, sum := srv.memo.size, 0
				for k, e := range srv.memo.entries {
					sum += entrySize(len(k), e)
				}
				srv.memo.mu.Unlock()
				if size > memoBudget || size != sum {
					t.Errorf("the memo counts %d bytes and holds %d; budget %d", size, sum, memoBudget)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	big := strings.TrimSuffix(hitBody, "}") + strings.Repeat(" ", memoMaxEntry) + "}"
	serveOnce(t, srv, "POST", "/v1/runs", big)
	serveOnce(t, srv, "POST", "/v1/runs", big)
	srv.memo.mu.Lock()
	_, stored := srv.memo.entries[big]
	srv.memo.mu.Unlock()
	if stored {
		t.Errorf("a %d-byte body was memoized; the entry cap is %d", len(big), memoMaxEntry)
	}
}

// FuzzRunRepeat posts the same bytes to /v1/runs twice on a warm daemon
// that cannot simulate (its one worker is parked and its queue is full,
// so a miss is refused 429 at once). Whenever the first answer was a
// cache hit or a 4xx, the second is byte-identical to it; no input is
// answered 5xx or panics a handler.
func FuzzRunRepeat(f *testing.F) {
	srv, err := New(WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		f.Fatal(err)
	}
	prev := log.Writer()
	log.SetOutput(io.Discard)
	f.Cleanup(func() {
		log.SetOutput(prev)
		srv.Close()
	})
	serveOnce(f, srv, "POST", "/v1/runs", hitBody)
	serveOnce(f, srv, "POST", "/v1/runs", `{"workload":"lu"}`)
	serveOnce(f, srv, "POST", "/v1/runs", `{"workload":"fft"}`)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader(memoScenarioDoc)))
	var created scenarioResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		f.Fatal(err)
	}
	block := make(chan struct{})
	f.Cleanup(func() { close(block) }) // runs before srv.Close
	srv.queue <- &job{block: block}
	for len(srv.queue) != 0 { // until the worker has taken the first
		time.Sleep(time.Millisecond)
	}
	srv.queue <- &job{block: block}

	for _, seed := range []string{
		hitBody, `{"workload":"lu"}`, ` { "workload" : "fft" } `, `{"workload":"lu"} trailing`,
		`{"scenario":"` + created.Digest + `"}`, `{"scenario":` + memoScenarioDoc + `}`,
		`{"workload":"gzip"}`, `{"workload":"nosuch"}`, `{"workload":"lu","scale":"enormous"}`,
		`{"workload":`, ``, `{"workload":"lu","nosuch":1}`, `{"threads":"x"}`, `{"scenario":"0000"}`,
		`{"workload":"fft","fault":{"seed":7}}`, `{"workload":"lu","timeout_s":0.5}`,
	} {
		f.Add([]byte(seed))
	}
	post := func(body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code1, first := post(body)
		code2, second := post(body)
		if code1 >= 500 || code2 >= 500 {
			t.Fatalf("answered %d %s, then %d %s", code1, first, code2, second)
		}
		if n := srv.counter(&srv.metrics.panics); n != 0 {
			t.Fatalf("a handler panicked (wsd_panics_total %d)", n)
		}
		var answer struct {
			Cached bool `json:"cached"`
		}
		hit := code1 == http.StatusOK && json.Unmarshal(first, &answer) == nil && answer.Cached
		if (hit || code1 >= 400) && (code2 != code1 || !bytes.Equal(second, first)) {
			t.Errorf("first answer %d %s, second %d %s", code1, first, code2, second)
		}
	})
}
