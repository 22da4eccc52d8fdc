package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"wavescalar/internal/cluster"
	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// TestClusterJournalMerge drives the worker→coordinator durability path
// end to end with the real shipper: a cell simulated only on a worker is
// shipped to the coordinator's /v1/cluster/journal, lands in its cache
// (served cached:true) and its own journal, and a full re-ship after a
// lost offset merges zero new records.
func TestClusterJournalMerge(t *testing.T) {
	dir := t.TempDir()
	workerJournal := filepath.Join(dir, "worker.jsonl")
	body := `{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":2,"virt":32,"match":32}}`

	// A worker-local run: this cell exists only in the worker's journal.
	srvW, err := New(WithWorkers(2), WithJournal(workerJournal, false))
	if err != nil {
		t.Fatal(err)
	}
	tsW := httptest.NewServer(srvW)
	runResp := decode[runResponse](t, post(t, tsW.URL+"/v1/runs", body))
	tsW.Close()
	if err := srvW.Close(); err != nil {
		t.Fatal(err)
	}

	srvC, err := New(WithRole(RoleCoordinator),
		WithJournal(filepath.Join(dir, "coord.jsonl"), false))
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(srvC)
	defer tsC.Close()
	defer srvC.Close()

	sh := &cluster.Shipper{Coordinator: tsC.URL, JournalPath: workerJournal,
		Logf: t.Logf}
	n, err := sh.ShipOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("shipped %d records, want >= 1", n)
	}

	// The coordinator now serves the worker's measurement from cache.
	got := decode[runResponse](t, post(t, tsC.URL+"/v1/runs", body))
	if !got.Cached {
		t.Error("coordinator simulated a cell the worker already shipped")
	}
	if got.Key != runResp.Key || got.Result != runResp.Result {
		t.Errorf("coordinator result diverges: %+v vs worker %+v", got, runResp)
	}

	// A restarted shipper (offset lost) re-ships everything; merging is
	// idempotent, so the coordinator's merged counter must not move.
	merged := scrapeMetric(t, tsC.URL, "wsd_cluster_journal_merged_total")
	fresh := &cluster.Shipper{Coordinator: tsC.URL, JournalPath: workerJournal,
		Logf: t.Logf}
	if _, err := fresh.ShipOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if again := scrapeMetric(t, tsC.URL, "wsd_cluster_journal_merged_total"); again != merged {
		t.Errorf("re-ship merged new records: counter %s -> %s", merged, again)
	}
}

// scrapeMetric returns the value token of one metric line.
func scrapeMetric(t *testing.T, baseURL, name string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return ""
}

// postJournal drives POST /v1/cluster/journal through ServeHTTP (no
// socket), so a test decides Content-Length and streams the body.
func postJournal(srv *Server, body io.Reader, contentLength int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/journal", body)
	req.ContentLength = contentLength
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// unreadable fails the test if the handler reads the body at all.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}

// TestClusterJournalTooLarge: a delta over cluster.MaxJournalDelta is
// never answered 2xx — the shipper advances its offset on 2xx. Declared by
// Content-Length it is refused before a byte is read; streamed without a
// length it is merged as it arrives, never held whole, and refused at the
// cap — the lines before the cut stay merged, so re-shipping them merges 0.
func TestClusterJournalTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, WithRole(RoleCoordinator))

	rec := postJournal(srv, unreadable{t}, cluster.MaxJournalDelta+1)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "too_large") {
		t.Fatalf("Content-Length over the cap: status %d, body %s; want 413 too_large", rec.Code, rec.Body)
	}

	// One small record, then one 512 KiB record repeated past the cap.
	first := `{"kind":"cell","key":"aaaa","app":"fft","aipc":1.5,"threads":1,"cycles":100}` + "\n"
	big := `{"kind":"cell","key":"bbbb","app":"lu","arch":"` + strings.Repeat("x", 512<<10) + `"}` + "\n"
	parts := []io.Reader{strings.NewReader(first)}
	for sent := 0; sent <= cluster.MaxJournalDelta; sent += len(big) {
		parts = append(parts, strings.NewReader(big))
	}
	rec = postJournal(srv, io.MultiReader(parts...), -1)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "too_large") {
		t.Fatalf("chunked body past the cap: status %d, body %s; want 413 too_large", rec.Code, rec.Body)
	}
	if merged := srv.counter(&srv.metrics.journalMerged); merged != 2 {
		t.Errorf("merged %d cells before the cut, want the 2 distinct ones", merged)
	}

	rec = postJournal(srv, strings.NewReader(first+big), -1)
	var ack cluster.JournalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("re-ship inside the cap: status %d, body %s (%v)", rec.Code, rec.Body, err)
	}
	if ack.Received != 2 || ack.Merged != 0 {
		t.Errorf("re-ship: received %d merged %d, want 2 and 0 (already merged before the cut)", ack.Received, ack.Merged)
	}
}

// TestClusterJournalRefusesKeylessCell: a "cell" line without a key used to
// answer merged:1, sit in the cache under "" — which every reader of a Cell
// takes for "no cell" — and be re-appended to the coordinator's journal for
// every warm restart to replay. It is refused like an unknown kind.
func TestClusterJournalRefusesKeylessCell(t *testing.T) {
	srv, _ := newTestServer(t, WithRole(RoleCoordinator))
	good := `{"kind":"cell","key":"aaaa","app":"fft","aipc":1.5,"threads":1,"cycles":100}` + "\n"

	rec := postJournal(srv, strings.NewReader(`{"kind":"cell"}`+"\n"+good), -1)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "cell without a key") {
		t.Errorf("keyless cell mid-delta: status %d, body %s; want 400", rec.Code, rec.Body)
	}
	// As the last line it is skipped with the torn-tail warning.
	rec = postJournal(srv, strings.NewReader(good+`{"kind":"cell"}`+"\n"), -1)
	var ack cluster.JournalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || rec.Code != http.StatusOK || ack.Received != 2 || ack.Merged != 1 {
		t.Errorf("keyless last line: status %d, body %s (%v); want 200 received 2 merged 1", rec.Code, rec.Body, err)
	}
	if _, ok := srv.cache.Cell(""); ok {
		t.Error("a cell is cached under the empty key")
	}
}

// FuzzClusterBodies: the five fabric endpoints that parse a body meet bytes
// from other machines. On a coordinator no input may panic a handler or be
// answered 5xx.
func FuzzClusterBodies(f *testing.F) {
	endpoints := []string{"execute", "register", "heartbeat", "deregister", "journal"}
	cfg, app, sc, counts := sim.Baseline(sim.BaselineArch()), "fft", workload.Tiny, []int{1}
	exec, err := json.Marshal(cluster.ExecRequest{Key: explore.CellKey(cfg, app, sc, counts), Config: cfg, App: app, Scale: sc, ThreadCounts: counts})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), exec)
	f.Add(uint8(1), []byte(`{"id":"w1","addr":"http://w1:8080","version":{"tool":"wsd"}}`))
	f.Add(uint8(2), []byte(`{"id":"w1","busy":2}`))
	f.Add(uint8(3), []byte(`{"id":"w1"}`))
	f.Add(uint8(4), []byte(`{"kind":"cell","key":"aaaa","app":"fft","aipc":1.5}`+"\n"+`{"kind":"cell"}`))
	f.Add(uint8(4), []byte(`{"kind":"tuning","key":"6055"}`+"\n"+`{"kind":"cell","key":"bb`))

	srv, err := New(WithRole(RoleCoordinator), WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	prev := log.Writer()
	log.SetOutput(io.Discard) // registrations and torn-tail warnings, one per input
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
