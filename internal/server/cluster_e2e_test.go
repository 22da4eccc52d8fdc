package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wavescalar/internal/cluster"
	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// execArgs is one resolved cell for driving /v1/cluster/execute.
func execArgs(t *testing.T) (sim.Config, string, workload.Scale, []int) {
	t.Helper()
	return sim.Baseline(sim.BaselineArch()), "fft", workload.Tiny, []int{1}
}

func mustKey(t *testing.T, cfg sim.Config, app string, sc workload.Scale, counts []int) string {
	t.Helper()
	key := explore.CellKey(cfg, app, sc, counts)
	if key == "" {
		t.Fatal("empty cell key")
	}
	return key
}

// registerWorker announces a worker to the coordinator over the real
// HTTP protocol.
func registerWorker(t *testing.T, coordURL, id, addr string) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"addr":%q,"version":{"tool":"wsd","version":"dev","commit":"unknown","date":"unknown","go":"test"}}`, id, addr)
	resp := post(t, coordURL+"/v1/cluster/register", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", id, resp.StatusCode)
	}
	var reg cluster.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if reg.LeaseS <= 0 || reg.Version.Tool != "wsd" {
		t.Fatalf("register %s: response %+v", id, reg)
	}
}

// sweepResult runs one sweep to completion and returns the raw result
// JSON (designs + frontier) — the byte-identity currency of the fabric.
func sweepResult(t *testing.T, baseURL, body string, midSweep func()) json.RawMessage {
	t.Helper()
	resp := post(t, baseURL+"/v1/sweeps", body)
	accepted := decode[struct {
		ID string `json:"id"`
	}](t, resp)
	if resp.StatusCode != http.StatusAccepted || accepted.ID == "" {
		t.Fatalf("sweep not accepted: status %d id %q", resp.StatusCode, accepted.ID)
	}
	fired := midSweep == nil
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s did not finish in time", accepted.ID)
		}
		jr, err := http.Get(baseURL + "/v1/jobs/" + accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		status := decode[struct {
			State    string `json:"state"`
			Error    string `json:"error"`
			Progress struct {
				Done int `json:"done"`
			} `json:"progress"`
			Result json.RawMessage `json:"result"`
		}](t, jr)
		if !fired && (status.State == "running" || status.Progress.Done > 0) {
			midSweep()
			fired = true
		}
		switch status.State {
		case "done":
			return status.Result
		case "failed", "cancelled":
			t.Fatalf("sweep %s: state %s (%s)", accepted.ID, status.State, status.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterSmoke is the fabric acceptance test, compose-free: a
// coordinator and two in-process workers run a sweep, one worker is
// killed mid-sweep, and the surviving fabric must produce byte-identical
// results to a single-node sweep of the same cells.
func TestClusterSmoke(t *testing.T) {
	const sweepBody = `{"apps":["fft","lu"],"scale":"tiny","max_points":8}`

	// Ground truth: the same sweep on an ordinary single-role daemon.
	_, single := newTestServer(t)
	want := sweepResult(t, single.URL, sweepBody, nil)

	coordSrv, coord := newTestServer(t,
		WithRole(RoleCoordinator),
		WithLease(500*time.Millisecond),
	)
	_, w1 := newTestServer(t, WithRole(RoleWorker))
	_, w2 := newTestServer(t, WithRole(RoleWorker))
	registerWorker(t, coord.URL, "w1", w1.URL)
	registerWorker(t, coord.URL, "w2", w2.URL)

	resp, err := http.Get(coord.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	members := decode[cluster.WorkersResponse](t, resp)
	if members.Role != "coordinator" || len(members.Workers) != 2 {
		t.Fatalf("workers = %+v", members)
	}

	// Run the sweep through the coordinator, killing w2 the moment the
	// job is observably underway: its unfinished cells must requeue onto
	// w1 (or fall back to local simulation) without changing one byte.
	killed := false
	got := sweepResult(t, coord.URL, sweepBody, func() {
		w2.Close()
		killed = true
	})
	if !killed {
		t.Fatal("mid-sweep hook never fired")
	}
	if string(got) != string(want) {
		t.Errorf("fabric sweep differs from single-node sweep:\n%s\nvs\n%s", got, want)
	}
	if st := coordSrv.coord.Stats(); st.RemoteCells == 0 {
		t.Errorf("fabric was never used: stats %+v", st)
	}

	// The coordinator's scrape must expose the fabric: membership,
	// per-worker in-flight cells, requeues, lease expirations, and the
	// build-info gauge labeled with the role.
	mr, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, mr)
	for _, series := range []string{
		"wsd_cluster_workers",
		"wsd_cluster_worker_inflight",
		"wsd_cluster_cells_dispatched_total",
		"wsd_cluster_remote_cells_total",
		"wsd_cluster_requeues_total",
		"wsd_cluster_lease_expirations_total",
		"wsd_quota_rejected_total",
		`role="coordinator"`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("coordinator /metrics missing %s", series)
		}
	}
}

// TestSweepSimsCountOnlyLocalCells checks wsd_sims_total: it counts the
// cells this node simulated, not the ones a worker ran (the worker counts
// those) and not the ones copied from a cache twin. On a coordinator, the
// stub worker refuses djpeg's 8 KB-L1 cells, so those fall back to local
// simulation, and it answers every other cell, lu's as deterministic
// failures; a coordinator's sweep copies nothing, with no worker
// registered too. A single-node daemon running the same sweep copies
// cells, and counts only the simulated ones.
func TestSweepSimsCountOnlyLocalCells(t *testing.T) {
	const body = `{"apps":["djpeg","lu"],"scale":"tiny","max_points":8}`
	stubExp, err := explore.New()
	if err != nil {
		t.Fatal(err)
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req cluster.ExecRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || (req.App == "djpeg" && req.Config.Arch.L1KB == 8) {
			http.Error(w, "refused", http.StatusServiceUnavailable)
			return
		}
		wl, err := workload.ByName(req.App)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		cell, _, err := stubExp.RunOne(r.Context(), req.Config, wl, req.Scale, req.ThreadCounts)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if req.App == "lu" {
			cell.AIPC, cell.Threads, cell.Err = 0, 0, "stub: deterministic failure"
		}
		json.NewEncoder(w).Encode(cluster.ExecResponse{Cell: cell})
	}))
	defer stub.Close()

	coordSrv, coord := newTestServer(t, WithRole(RoleCoordinator))
	registerWorker(t, coord.URL, "stub", stub.URL)
	sweepResult(t, coord.URL, body, nil)

	p := coordSrv.exp.LastProgress()
	local := p.Simulated - p.Remote
	if p.Remote == 0 || local == 0 || p.Failed == 0 || p.Reused != 0 {
		t.Fatalf("coordinator sweep: %+v, want remote, local and failed cells and none copied", p)
	}
	if got := coordSrv.counter(&coordSrv.metrics.simsCompleted); got != uint64(local) {
		t.Errorf("completed sims = %d, want the %d simulated on the coordinator (progress %+v)", got, local, p)
	}
	if got := coordSrv.counter(&coordSrv.metrics.simsFailed); got != 0 {
		t.Errorf("failed sims = %d, want 0: every failure happened on the worker", got)
	}

	single, ts := newTestServer(t)
	want := sweepResult(t, ts.URL, body, nil)
	p = single.exp.LastProgress()
	if p.Reused == 0 || p.Remote != 0 {
		t.Fatalf("single-node sweep: %+v, want copied cells", p)
	}
	completed, failed := single.counter(&single.metrics.simsCompleted), single.counter(&single.metrics.simsFailed)
	if completed+failed != uint64(p.Simulated-p.Reused) || failed != uint64(p.Failed) {
		t.Errorf("sims completed %d, failed %d; want %d simulated of which %d failed (progress %+v)",
			completed, failed, p.Simulated-p.Reused, p.Failed, p)
	}

	bare, bareTS := newTestServer(t, WithRole(RoleCoordinator))
	got := sweepResult(t, bareTS.URL, body, nil)
	p = bare.exp.LastProgress()
	if p.Reused != 0 || p.Remote != 0 {
		t.Fatalf("coordinator sweep with no workers: %+v, want every cell simulated here", p)
	}
	if sims := bare.counter(&bare.metrics.simsCompleted) + bare.counter(&bare.metrics.simsFailed); sims != uint64(p.Simulated) {
		t.Errorf("coordinator with no workers: %d sims, want %d (progress %+v)", sims, p.Simulated, p)
	}
	if string(got) != string(want) {
		t.Errorf("coordinator with no workers differs from single node:\n%s\nvs\n%s", got, want)
	}
}

// TestClusterScenarioSweep shards a scenario sweep (with a fault script
// folded into every design point) across the fabric and requires the
// result to be byte-identical to the same sweep on a single-node daemon —
// scenario cells travel the dispatch protocol like any others.
func TestClusterScenarioSweep(t *testing.T) {
	const sweepBody = `{"max_points":4,"scenario":{"scenario":"v1","scale":"tiny","threads":[1],
		"fault":{"seed":3,"link_flip_rate":0.0005},"phases":[
		{"name":"a","workload":{"gemm":{"order":"os","tm":4,"tn":4,"tk":4}}},
		{"name":"b","workload":{"name":"fft"}}]}}`

	_, single := newTestServer(t)
	want := sweepResult(t, single.URL, sweepBody, nil)

	coordSrv, coord := newTestServer(t,
		WithRole(RoleCoordinator),
		WithLease(500*time.Millisecond),
	)
	_, w1 := newTestServer(t, WithRole(RoleWorker))
	registerWorker(t, coord.URL, "w1", w1.URL)

	got := sweepResult(t, coord.URL, sweepBody, nil)
	if string(got) != string(want) {
		t.Errorf("fabric scenario sweep differs from single-node:\n%s\nvs\n%s", got, want)
	}
	if st := coordSrv.coord.Stats(); st.RemoteCells == 0 {
		t.Errorf("fabric was never used: stats %+v", st)
	}
}

// TestClusterExecuteEndpoint drives the worker half of the protocol
// directly: a valid request simulates and returns the requested key, a
// repeat is served from cache, and a drifted key is refused with 409.
func TestClusterExecuteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, WithRole(RoleWorker))
	cfg, app, sc, counts := execArgs(t)
	key := mustKey(t, cfg, app, sc, counts)

	body, err := json.Marshal(cluster.ExecRequest{Key: key, Config: cfg, App: app, Scale: sc, ThreadCounts: counts})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/cluster/execute", string(body))
	first := decode[cluster.ExecResponse](t, resp)
	if resp.StatusCode != http.StatusOK || first.Cell.Key != key || first.Cached {
		t.Fatalf("first execute: status %d, %+v", resp.StatusCode, first)
	}
	if first.Version.Tool != "wsd" {
		t.Errorf("response not version-stamped: %+v", first.Version)
	}

	resp = post(t, ts.URL+"/v1/cluster/execute", string(body))
	second := decode[cluster.ExecResponse](t, resp)
	if !second.Cached || second.Cell != first.Cell {
		t.Errorf("repeat execute not served from cache: %+v", second)
	}

	bad, err := json.Marshal(cluster.ExecRequest{Key: "0000", Config: cfg, App: app, Scale: sc, ThreadCounts: counts})
	if err != nil {
		t.Fatal(err)
	}
	resp = post(t, ts.URL+"/v1/cluster/execute", string(bad))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("drifted key: status %d, want 409", resp.StatusCode)
	}
}

// TestClusterEndpointsRequireCoordinator: membership endpoints on a
// non-coordinator answer 409, not 404 — the route exists, the role is
// wrong.
func TestClusterEndpointsRequireCoordinator(t *testing.T) {
	_, ts := newTestServer(t)
	for _, ep := range []string{"/v1/cluster/register", "/v1/cluster/heartbeat", "/v1/cluster/deregister"} {
		resp := post(t, ts.URL+ep, `{"id":"w1","addr":"http://x"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s on single role: status %d, want 409", ep, resp.StatusCode)
		}
	}
}

// FuzzClusterBodies: the four fabric endpoints that parse a body meet bytes
// from other machines. On a coordinator no input may panic a handler or be
// answered 5xx.
func FuzzClusterBodies(f *testing.F) {
	endpoints := []string{"execute", "register", "heartbeat", "deregister"}
	cfg, app, sc, counts := sim.Baseline(sim.BaselineArch()), "fft", workload.Tiny, []int{1}
	exec, err := json.Marshal(cluster.ExecRequest{Key: explore.CellKey(cfg, app, sc, counts), Config: cfg, App: app, Scale: sc, ThreadCounts: counts})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), exec)
	f.Add(uint8(1), []byte(`{"id":"w1","addr":"http://w1:8080","version":{"tool":"wsd"}}`))
	f.Add(uint8(2), []byte(`{"id":"w1","busy":2}`))
	f.Add(uint8(3), []byte(`{"id":"w1"}`))

	srv, err := New(WithRole(RoleCoordinator), WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	prev := log.Writer()
	log.SetOutput(io.Discard) // one registration line per input
	f.Cleanup(func() {
		log.SetOutput(prev)
		srv.Close()
	})
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		ep := endpoints[int(which)%len(endpoints)]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/"+ep, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Errorf("%s answered %d: %s", ep, rec.Code, rec.Body)
		}
		if n := srv.counter(&srv.metrics.panics); n != 0 {
			t.Fatalf("%s panicked a handler (wsd_panics_total %d)", ep, n)
		}
	})
}

// TestTenantQuota: with a per-tenant cap of 1, a tenant's second
// concurrent sweep is rejected with 429 + Retry-After while another
// tenant still gets in.
func TestTenantQuota(t *testing.T) {
	srv, ts := newTestServer(t, WithWorkers(1), WithTenantQuota(1))
	block := make(chan struct{})
	defer close(block)
	// Park the only pool worker so admitted jobs stay queued and the
	// quota stays charged.
	if err := srv.enqueue(&job{block: block}); err != nil {
		t.Fatal(err)
	}

	fire := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps",
			strings.NewReader(`{"apps":["fft"],"scale":"tiny","max_points":2}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	first := fire("alice")
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first sweep: status %d", first.StatusCode)
	}
	second := fire("alice")
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota sweep: status %d, want 429", second.StatusCode)
	}
	if ra := second.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want 2", ra)
	}
	other := fire("bob")
	other.Body.Close()
	if other.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant: status %d, want 202 (quota is per-tenant)", other.StatusCode)
	}
	if srv.quotas.rejections() != 1 {
		t.Errorf("rejections = %d, want 1", srv.quotas.rejections())
	}
}
