package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"wavescalar/internal/explore"
	"wavescalar/internal/scenario"
	"wavescalar/internal/server"
	"wavescalar/internal/sim"
)

// The serve_hot universe: a hot set of 256 cells (8 cheap workloads at
// tiny scale, one thread, by 32 machines a request's "config" can name),
// 32 stored-scenario runs over three hot cells each, four requests the
// daemon must refuse, and the three read-only GETs.
const (
	serveClients      = 2
	serveOpsPerClient = 5000
	serveWorkers      = 2
	// The mix of a client's schedule, in ops; the rest are cache hits.
	serveScenarioOps = serveOpsPerClient * 4 / 100
	serveRefuseOps   = serveOpsPerClient * 2 / 100
	serveGetOps      = serveOpsPerClient * 2 / 100
	serveZipfS       = 1.1
)

var serveApps = []string{"lu", "ocean", "raytrace", "water", "djpeg", "art", "mcf", "equake"}

// kind is what a request is for; its span is named "http." + kind.
type kind string

const (
	kindHit      kind = "hit"
	kindScenario kind = "scenario"
	kindRefuse   kind = "refuse"
	kindGet      kind = "get"
	kindMetrics  kind = "metrics"
)

// request is one distinct request of the universe with the response it
// must get.
type request struct {
	kind   kind
	method string
	path   string
	body   []byte
	status int
	want   []byte // the exact response body; nil where it legitimately varies (/metrics)
	cycles uint64 // simulated cycles of the result it delivers
}

// serveBench is serve_hot: two closed-loop clients over loopback against
// an in-process server.Server behind httptest, restarted each round from
// the journal of the hot set. The timed part runs no simulation.
type serveBench struct {
	dir      string
	pins     *pins
	cells    []cellSpec // the hot set, in request order
	docs     [][]byte   // scenario documents
	digests  []string   // and what scenario.Digest makes of them
	reqs     []request  // hits first, in cells order
	sched    [serveClients][]int
	chk      checkResult
	restarts []float64 // seconds each warm restart took
	// Of the cold warm-up: simulations run per request sent.
	simsPerReq   float64
	metricsBytes int
}

func (b *serveBench) journal() string { return filepath.Join(b.dir, "journal.jsonl") }
func (b *serveBench) store() string   { return filepath.Join(b.dir, "scenarios.jsonl") }

// archConfig is the "config" object of a request body.
type archConfig struct {
	Clusters int `json:"clusters"`
	Virt     int `json:"virt"`
	L1KB     int `json:"l1_kb"`
	L2MB     int `json:"l2_mb"`
}

// plan enumerates the universe (the hot set, the scenario documents and
// every distinct request) and fixes the seeded schedule. It simulates
// nothing and starts no daemon.
func (b *serveBench) plan(seed int64) error {
	var configs []archConfig
	for _, c := range []int{1, 4} {
		for _, v := range []int{64, 128} {
			for _, l1 := range []int{8, 16} {
				for _, l2 := range []int{1, 2, 4, 8} {
					configs = append(configs, archConfig{c, v, l1, l2})
				}
			}
		}
	}
	for _, app := range serveApps {
		for _, ac := range configs {
			arch := sim.BaselineArch()
			arch.Clusters, arch.Virt, arch.L1KB, arch.L2MB = ac.Clusters, ac.Virt, ac.L1KB, ac.L2MB
			c := cellSpec{App: app, Scale: "tiny", Arch: arch, Counts: []int{1}}
			b.cells = append(b.cells, c)
			b.reqs = append(b.reqs, request{kind: kindHit, method: "POST", path: "/v1/runs", status: 200,
				body:   mustJSON(map[string]any{"workload": app, "scale": "tiny", "threads": 1, "config": ac}),
				cycles: b.pins.Serve[c.id()].Cycles})
		}
	}
	// Scenario runs by stored digest, three hot cells each.
	for d := range serveApps {
		var phases []map[string]any
		for k := 0; k < 3; k++ {
			app := serveApps[(d+k)%len(serveApps)]
			phases = append(phases, map[string]any{"name": app, "workload": map[string]string{"name": app}})
		}
		doc := mustJSON(map[string]any{"scenario": "v1", "name": "hot-" + serveApps[d], "scale": "tiny", "threads": []int{1}, "phases": phases})
		parsed, err := scenario.Parse(doc)
		if err != nil {
			return err
		}
		b.docs = append(b.docs, doc)
		b.digests = append(b.digests, parsed.Digest())
		for k := 0; k < 4; k++ {
			ci := (d + 9*k) % len(configs)
			rq := request{kind: kindScenario, method: "POST", path: "/v1/runs", status: 200,
				body: mustJSON(map[string]any{"scenario": parsed.Digest(), "config": configs[ci]})}
			for p := 0; p < 3; p++ {
				rq.cycles += b.reqs[(d+p)%len(serveApps)*len(configs)+ci].cycles
			}
			b.reqs = append(b.reqs, rq)
		}
	}
	b.reqs = append(b.reqs,
		request{kind: kindRefuse, method: "POST", path: "/v1/runs", status: 404, body: []byte(`{"workload":"no-such-kernel","scale":"tiny"}`)},
		request{kind: kindRefuse, method: "POST", path: "/v1/runs", status: 400, body: []byte(`{"workload":"lu","scale":"enormous"}`)},
		request{kind: kindRefuse, method: "POST", path: "/v1/runs", status: 404, body: []byte(`{"scenario":"0000000000000000"}`)},
		request{kind: kindRefuse, method: "POST", path: "/v1/runs", status: 400, body: []byte(`{"workload":`)},
		request{kind: kindGet, method: "GET", path: "/v1/designs", status: 200},
		request{kind: kindGet, method: "GET", path: "/v1/workloads", status: 200},
		request{kind: kindMetrics, method: "GET", path: "/metrics", status: 200},
	)
	b.schedule(seed)
	return nil
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// running is one live daemon behind an HTTP listener.
type running struct {
	srv *server.Server
	ts  *httptest.Server
}

// start brings a daemon up on the workload's journal and scenario store;
// with resume it replays them (the warm-restart path).
func (b *serveBench) start(resume bool) (*running, error) {
	srv, err := server.New(server.WithWorkers(serveWorkers), server.WithParallelism(serveWorkers),
		server.WithJournal(b.journal(), resume), server.WithScenarioStore(b.store()))
	if err != nil {
		return nil, err
	}
	return &running{srv: srv, ts: httptest.NewServer(srv)}, nil
}

func (r *running) stop(ctx context.Context) error {
	r.ts.Close()
	return r.srv.Shutdown(ctx)
}

// do sends one request and reads the whole response.
func do(c *http.Client, base string, rq *request) (int, []byte, error) {
	hr, err := http.NewRequest(rq.method, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, err
	}
	if rq.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

func newClient() (*http.Client, func()) {
	t := &http.Transport{MaxIdleConnsPerHost: 1}
	return &http.Client{Transport: t, Timeout: 60 * time.Second}, t.CloseIdleConnections
}

// runResult is the part of a result the benchmark checks.
type runResult struct {
	App string `json:"app"`
	cellPin
	Err string `json:"err"`
}

// runBody is a /v1/runs response: one result, or for a scenario run one
// per phase.
type runBody struct {
	Cached bool      `json:"cached"`
	Result runResult `json:"result"`
	Phases []struct {
		Result runResult `json:"result"`
	} `json:"phases"`
}

var simsCompleted = regexp.MustCompile(`wsd_sims_total\{outcome="completed"\} (\d+)`)

func (b *serveBench) setup(ctx context.Context, seed int64) error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	if err := b.plan(seed); err != nil {
		return err
	}
	sims, err := simsOf(b.cells)
	if err != nil {
		return err
	}
	ref, err := refCheck(sims)
	if err != nil {
		return err
	}
	b.chk.refKinstPerS = ref.kinstPerS

	// Cold: store the scenarios, then both clients send every hot-set
	// request at once. Whoever arrives second joins the first's
	// simulation or hits the cache, so each cell is simulated once.
	cold, err := b.start(false)
	if err != nil {
		return err
	}
	results, err := b.coldWarm(cold)
	if serr := cold.stop(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	for i, c := range b.cells {
		for ci := range results {
			got := results[ci][i].Result
			if got.Err != "" || got.App != c.App || got.cellPin != b.pins.Serve[c.id()] {
				b.chk.pinMismatches++
			}
		}
		if results[0][i].Result.countable() != ref.countable[refKey{c.App, "tiny", 1}] {
			b.chk.refMismatches++
		}
	}

	// Warm restart, then every distinct request once: the response each
	// must get on every later round, checked here and compared as bytes
	// from then on.
	warm, err := b.restart()
	if err != nil {
		return err
	}
	client, idle := newClient()
	for i := range b.reqs {
		rq := &b.reqs[i]
		status, body, err := do(client, warm.ts.URL, rq)
		if err != nil {
			idle()
			warm.stop(ctx)
			return err
		}
		if !b.expected(rq, i, status, body) {
			b.chk.pinMismatches++
		}
		if rq.kind == kindMetrics {
			b.metricsBytes = len(body)
		} else {
			rq.want = body
		}
	}
	idle()
	return warm.stop(ctx)
}

// coldWarm stores the scenario documents on an empty daemon, sends every
// hot-set request from every client at once, and counts the simulations
// that took. It returns each client's decoded responses.
func (b *serveBench) coldWarm(cold *running) ([][]runBody, error) {
	client, idle := newClient()
	defer idle()
	for i, doc := range b.docs {
		status, body, err := do(client, cold.ts.URL, &request{method: "POST", path: "/v1/scenarios", body: doc})
		var resp struct{ Digest string }
		if err == nil {
			err = json.Unmarshal(body, &resp)
		}
		if err != nil || status != http.StatusCreated || resp.Digest != b.digests[i] {
			return nil, fmt.Errorf("storing scenario %d: status %d, digest %q, want %q: %v", i, status, resp.Digest, b.digests[i], err)
		}
	}
	results := make([][]runBody, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			client, idle := newClient()
			defer idle()
			results[ci] = make([]runBody, len(b.cells))
			for i := range b.cells {
				status, body, err := do(client, cold.ts.URL, &b.reqs[i])
				if err == nil && status != 200 {
					err = fmt.Errorf("cold %s: status %d: %s", b.cells[i].id(), status, body)
				}
				if err == nil {
					err = json.Unmarshal(body, &results[ci][i])
				}
				if err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	_, scrape, err := do(client, cold.ts.URL, &request{method: "GET", path: "/metrics"})
	if err != nil {
		return nil, err
	}
	m := simsCompleted.FindSubmatch(scrape)
	if m == nil {
		return nil, fmt.Errorf("/metrics has no completed-simulations counter")
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		return nil, err
	}
	b.simsPerReq = ratio(float64(n), float64(serveClients*len(b.cells)))
	return results, nil
}

// expected checks a warm response in full: the status, that nothing was
// simulated, and every result against the pin of its cell.
func (b *serveBench) expected(rq *request, i, status int, body []byte) bool {
	if status != rq.status {
		return false
	}
	switch rq.kind {
	case kindHit:
		var got runBody
		if json.Unmarshal(body, &got) != nil {
			return false
		}
		return got.Cached && got.Result.Err == "" && got.Result.cellPin == b.pins.Serve[b.cells[i].id()]
	case kindScenario:
		var got runBody
		if json.Unmarshal(body, &got) != nil || !got.Cached || len(got.Phases) != 3 {
			return false
		}
		var cycles uint64
		for _, ph := range got.Phases {
			cycles += ph.Result.Cycles
		}
		return cycles == rq.cycles
	case kindRefuse:
		var got struct {
			Error struct{ Code, Message string }
		}
		return json.Unmarshal(body, &got) == nil && got.Error.Code != "" && got.Error.Message != ""
	}
	return len(body) > 0
}

// restart brings the daemon up from the journal and records how long the
// warm restart took.
func (b *serveBench) restart() (*running, error) {
	start := time.Now()
	r, err := b.start(true)
	if err != nil {
		return nil, err
	}
	b.restarts = append(b.restarts, time.Since(start).Seconds())
	if got := r.srv.Resumed(); got != len(b.cells) {
		r.stop(context.Background())
		return nil, fmt.Errorf("warm restart replayed %d cells, want %d", got, len(b.cells))
	}
	return r, nil
}

// schedule fixes each client's round: exact counts of each kind of
// request, cache hits drawn Zipf(1.1) over the hot set, in a seeded
// order. Every round replays it.
func (b *serveBench) schedule(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Rank r of the Zipf draw is always the same cell, and neighbouring
	// ranks are different workloads: were the ranking seeded, the few
	// cells that take half the draws would differ from seed to seed, and
	// with them the simulated cycles an op delivers.
	rank := make([]int, len(b.cells))
	perApp := len(b.cells) / len(serveApps)
	for r := range rank {
		rank[r] = r%len(serveApps)*perApp + r/len(serveApps)
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(b.cells)-1))
	byKind := make(map[kind][]int)
	for i, rq := range b.reqs {
		byKind[rq.kind] = append(byKind[rq.kind], i)
	}
	gets := append(append([]int(nil), byKind[kindGet]...), byKind[kindMetrics]...)
	h := sha256.New()
	for ci := range b.sched {
		s := make([]int, 0, serveOpsPerClient)
		for k := 0; k < serveScenarioOps; k++ {
			s = append(s, byKind[kindScenario][rng.Intn(len(byKind[kindScenario]))])
		}
		for k := 0; k < serveRefuseOps; k++ {
			s = append(s, byKind[kindRefuse][k%len(byKind[kindRefuse])])
		}
		for k := 0; k < serveGetOps; k++ {
			s = append(s, gets[k%len(gets)])
		}
		for len(s) < serveOpsPerClient {
			s = append(s, rank[zipf.Uint64()])
		}
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		b.sched[ci] = s
		for _, ri := range s {
			fmt.Fprintln(h, ri)
		}
	}
	b.chk.scheduleHash = shortSum(h)
}

func (b *serveBench) opsPerRound() int { return serveClients * serveOpsPerClient }

func (b *serveBench) round(ctx context.Context, tr *recorder, ops []opSample) (roundSample, error) {
	r := roundSample{ops: ops}
	run, err := b.restart()
	if err != nil {
		return r, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			client, idle := newClient()
			defer idle()
			ops := r.ops[ci*serveOpsPerClient : (ci+1)*serveOpsPerClient]
			for k, ri := range b.sched[ci] {
				rq := &b.reqs[ri]
				t0 := time.Now()
				id := tr.begin("http."+string(rq.kind), -1, tr.newOp())
				status, body, err := do(client, run.ts.URL, rq)
				tr.end(id)
				op := opSample{ms: time.Since(t0).Seconds() * 1000, cycles: rq.cycles}
				if err != nil || status != rq.status || (rq.want != nil && !bytes.Equal(body, rq.want)) {
					op.failed, op.cycles = true, 0
				}
				ops[k] = op
			}
		}(ci)
	}
	wg.Wait()
	r.wall = time.Since(start)
	return r, run.stop(ctx)
}

func (b *serveBench) layers(ctx context.Context, tr *recorder, out map[string]float64) error {
	httpHit := median(spanMicros(tr.spans, "http.hit"))
	out["server.http_us_p50"] = httpHit
	out["server.refuse_us_p50"] = median(spanMicros(tr.spans, "http.refuse"))
	out["server.metrics_scrape_us_p50"] = median(spanMicros(tr.spans, "http.metrics"))
	out["server.warm_restart_ms"] = median(b.restarts) * 1000
	out["server.singleflight_sims_per_req"] = b.simsPerReq
	var sizes []float64
	for _, ri := range b.sched[0] {
		if n := len(b.reqs[ri].want); n > 0 {
			sizes = append(sizes, float64(n))
		} else {
			sizes = append(sizes, float64(b.metricsBytes))
		}
	}
	out["server.resp_bytes_p50"] = median(sizes)

	// The handler alone: the first client's cache hits again, straight
	// into ServeHTTP with a recorder for a socket.
	run, err := b.restart()
	if err != nil {
		return err
	}
	for _, ri := range b.sched[0] {
		rq := &b.reqs[ri]
		if rq.kind != kindHit {
			continue
		}
		hr := httptest.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body))
		rec := httptest.NewRecorder()
		id := tr.begin("server.handler", -1, tr.newOp())
		run.srv.ServeHTTP(rec, hr)
		tr.end(id)
		if rec.Code != rq.status || !bytes.Equal(rec.Body.Bytes(), rq.want) {
			run.stop(ctx)
			return fmt.Errorf("direct handler answered request %d differently from the daemon", ri)
		}
	}
	if err := run.stop(ctx); err != nil {
		return err
	}
	handler := median(spanMicros(tr.spans, "server.handler"))
	out["server.handler_us_p50"] = handler
	out["server.transport_share"] = 1 - ratio(handler, httpHit)

	if err := b.coldOverhead(ctx, tr, out); err != nil {
		return err
	}

	var parse, digest time.Duration
	for rep := 0; rep < probeReps; rep++ {
		for _, doc := range b.docs {
			t0 := time.Now()
			sc, err := scenario.Parse(doc)
			t1 := time.Now()
			if err != nil {
				return err
			}
			sc.Digest()
			parse += t1.Sub(t0)
			digest += time.Since(t1)
		}
	}
	calls := float64(probeReps * len(b.docs))
	out["scenario.parse_us"] = ratio(float64(parse.Nanoseconds())/1000, calls)
	out["scenario.digest_us"] = ratio(float64(digest.Nanoseconds())/1000, calls)

	if err := exploreProbe(tr, b.cells, b.journal(), out); err != nil {
		return err
	}
	if _, err := designProbe(ctx, tr, b.cells, out); err != nil {
		return err
	}
	return simProbe(ctx, tr, b.cells, out)
}

// coldOverhead measures what the daemon adds to a simulation: one client
// sends cold requests to an empty daemon one at a time, and the same
// cells go straight through Explorer.RunOne, the call the daemon's
// worker makes.
func (b *serveBench) coldOverhead(ctx context.Context, tr *recorder, out map[string]float64) error {
	const n = 32
	srv, err := server.New(server.WithWorkers(serveWorkers))
	if err != nil {
		return err
	}
	run := &running{srv: srv, ts: httptest.NewServer(srv)}
	e, err := explore.New()
	if err != nil {
		run.stop(ctx)
		return err
	}
	defer e.Close()
	client, idle := newClient()
	defer idle()
	var over []float64
	for i := 0; i < n; i++ {
		// Spread over the hot set: every workload, both cluster counts.
		ri := i * len(b.cells) / n
		c := b.cells[ri]
		t0 := time.Now()
		id := tr.begin("http.cold", -1, tr.newOp())
		status, _, err := do(client, run.ts.URL, &b.reqs[ri])
		tr.end(id)
		cold := time.Since(t0)
		if err != nil || status != 200 {
			run.stop(ctx)
			return fmt.Errorf("cold request %s: status %d: %v", c.id(), status, err)
		}
		cfg, w, sc, err := c.resolve()
		if err != nil {
			run.stop(ctx)
			return err
		}
		t0 = time.Now()
		id = tr.begin("explore.run_one", -1, tr.newOp())
		_, _, err = e.RunOne(ctx, cfg, w, sc, c.Counts)
		tr.end(id)
		if err != nil {
			run.stop(ctx)
			return err
		}
		over = append(over, (cold-time.Since(t0)).Seconds()*1000)
	}
	out["server.cold_overhead_ms_p50"] = median(over)
	return run.stop(ctx)
}

func (b *serveBench) check() checkResult { return b.chk }

func (b *serveBench) pin(ctx context.Context, p *pins) error {
	if err := b.plan(1); err != nil {
		return err
	}
	return pinCells(ctx, b.cells, p.Serve)
}

func (b *serveBench) close() error { return os.RemoveAll(b.dir) }
