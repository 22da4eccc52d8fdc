package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestAgentRejoinsAfter404 runs the real Agent against a Registry behind
// the coordinator's three membership routes: it registers, heartbeats, is
// forgotten behind its back (what a coordinator restart or a lapsed lease
// looks like from the worker), reads the next heartbeat's 404 as "rejoin",
// and deregisters when its context ends.
func TestAgentRejoinsAfter404(t *testing.T) {
	reg := NewRegistry(150*time.Millisecond, discard) // heartbeats every 50ms
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID, Addr string
			Busy     int
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.URL.Path {
		case "/v1/cluster/register":
			reg.Register(RegisterRequest{ID: req.ID, Addr: req.Addr})
			json.NewEncoder(w).Encode(RegisterResponse{LeaseS: reg.TTL().Seconds()})
		case "/v1/cluster/heartbeat":
			if !reg.Heartbeat(req.ID, req.Busy) {
				http.Error(w, "unknown worker; re-register", http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(HeartbeatResponse{OK: true})
		case "/v1/cluster/deregister":
			reg.Deregister(req.ID)
		default:
			http.NotFound(w, r)
		}
	}))
	defer coord.Close()

	owned := func() bool { return len(reg.Owners("any-cell", 1)) == 1 }
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	agent := &Agent{Coordinator: coord.URL, ID: "w", Addr: "http://w", Busy: func() int { return 2 }, Logf: discard}
	go func() { done <- agent.Run(ctx) }()

	// A lease shows Busy 2 only once a heartbeat has renewed it.
	beating := func() bool {
		snap := reg.Snapshot()
		return len(snap) == 1 && snap[0].Busy == 2
	}
	await("the first registration", owned)
	await("a heartbeat", beating)
	reg.Deregister("w")
	await("the re-registration after a 404", owned)
	await("a heartbeat on the new lease", beating)

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if owned() {
		t.Error("the agent returned without deregistering")
	}
}
