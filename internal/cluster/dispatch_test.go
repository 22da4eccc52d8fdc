package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// fakeWorker is an httptest worker that executes cells by echoing the
// requested key with a fabricated AIPC, optionally failing first.
func fakeWorker(t *testing.T, failures *atomic.Int64) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/execute" {
			http.NotFound(w, r)
			return
		}
		if failures != nil && failures.Add(-1) >= 0 {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		var req ExecRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(ExecResponse{
			Cell: explore.Cell{Key: req.Key, App: req.App, AIPC: 1.5, Threads: 1},
		})
	}))
}

func runArgs() (sim.Config, string, workload.Scale, []int) {
	return sim.Baseline(sim.BaselineArch()), "fft", workload.Tiny, []int{1}
}

func TestRunCellNoWorkers(t *testing.T) {
	c := NewCoordinator(time.Minute)
	cfg, app, sc, counts := runArgs()
	_, err := c.RunCell(context.Background(), "key-1", cfg, app, sc, counts)
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestRunCellHappyPath(t *testing.T) {
	ws := fakeWorker(t, nil)
	defer ws.Close()
	c := NewCoordinator(time.Minute)
	c.Registry().Register(RegisterRequest{ID: "w1", Addr: ws.URL})

	cfg, app, sc, counts := runArgs()
	cell, err := c.RunCell(context.Background(), "key-1", cfg, app, sc, counts)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Key != "key-1" || cell.AIPC != 1.5 {
		t.Fatalf("cell = %+v", cell)
	}
	st := c.Stats()
	if st.Workers != 1 || st.RemoteCells != 1 || st.Requeues != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRunCellFailover kills the key's first owner and checks the cell is
// requeued onto the next distinct one.
func TestRunCellFailover(t *testing.T) {
	good := fakeWorker(t, nil)
	defer good.Close()
	dead := fakeWorker(t, nil)
	dead.Close() // immediately unreachable

	c := NewCoordinator(time.Minute)
	c.Registry().Register(RegisterRequest{ID: "good", Addr: good.URL})
	c.Registry().Register(RegisterRequest{ID: "dead", Addr: dead.URL})

	// Pick a key owned by the dead worker so the first attempt must fail.
	key := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.Registry().Owners(k, 1)[0].ID == "dead" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key hashed to the dead worker")
	}

	cfg, app, sc, counts := runArgs()
	cell, err := c.RunCell(context.Background(), key, cfg, app, sc, counts)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Key != key {
		t.Fatalf("cell = %+v", cell)
	}
	st := c.Stats()
	if st.Requeues == 0 || st.RemoteErrors == 0 {
		t.Errorf("failover not recorded in stats: %+v", st)
	}
}

// TestRunCellRetriesSameWorker proves a transiently failing sole worker
// is retried (bounded) rather than abandoned.
func TestRunCellRetriesSameWorker(t *testing.T) {
	var failures atomic.Int64
	failures.Store(1) // first call 500s, second succeeds
	ws := fakeWorker(t, &failures)
	defer ws.Close()
	c := NewCoordinator(time.Minute)
	c.Registry().Register(RegisterRequest{ID: "w1", Addr: ws.URL})

	cfg, app, sc, counts := runArgs()
	cell, err := c.RunCell(context.Background(), "key-2", cfg, app, sc, counts)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Key != "key-2" {
		t.Fatalf("cell = %+v", cell)
	}
}

func TestRunCellExhaustsAttempts(t *testing.T) {
	var failures atomic.Int64
	failures.Store(1000)
	ws := fakeWorker(t, &failures)
	defer ws.Close()
	c := NewCoordinator(time.Minute)
	c.Registry().Register(RegisterRequest{ID: "w1", Addr: ws.URL})

	cfg, app, sc, counts := runArgs()
	_, err := c.RunCell(context.Background(), "key-3", cfg, app, sc, counts)
	if err == nil {
		t.Fatal("want error after exhausted attempts")
	}
	if st := c.Stats(); st.RemoteErrors != dispatchAttempts || st.Requeues != dispatchAttempts-1 {
		t.Errorf("stats = %+v, want %d errors / %d requeues", st, dispatchAttempts, dispatchAttempts-1)
	}
}

// TestRunCellKeyMismatch proves a worker returning a cell under a
// different key (mixed-version key schema) can never commit.
func TestRunCellKeyMismatch(t *testing.T) {
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ExecResponse{Cell: explore.Cell{Key: "some-other-key"}})
	}))
	defer ws.Close()
	c := NewCoordinator(time.Minute)
	c.Registry().Register(RegisterRequest{ID: "w1", Addr: ws.URL})

	cfg, app, sc, counts := runArgs()
	_, err := c.RunCell(context.Background(), "key-4", cfg, app, sc, counts)
	if err == nil {
		t.Fatal("key mismatch accepted")
	}
}

// TestExecConfigRoundTrip proves the wire encoding preserves the cell
// key: a config JSON-round-tripped through ExecRequest must produce the
// same content address, or the fabric would corrupt its result space.
func TestExecConfigRoundTrip(t *testing.T) {
	cfg, app, sc, counts := runArgs()
	key := explore.CellKey(cfg, app, sc, counts)
	data, err := json.Marshal(ExecRequest{Key: key, Config: cfg, App: app, Scale: sc, ThreadCounts: counts})
	if err != nil {
		t.Fatal(err)
	}
	var req ExecRequest
	if err := json.Unmarshal(data, &req); err != nil {
		t.Fatal(err)
	}
	if got := explore.CellKey(req.Config, req.App, req.Scale, req.ThreadCounts); got != key {
		t.Fatalf("key after round trip %s != %s", got, key)
	}
}
