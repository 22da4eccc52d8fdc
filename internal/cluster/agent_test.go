package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
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
	agent := &Agent{Coordinator: coord.URL, ID: "w", Addr: "http://w", Busy: func() int { return 2 }}
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

// TestAgentDeregistersWhenCancelledMidRegister: the coordinator accepts a
// registration, but the agent is cancelled before the answer arrives. The
// coordinator holds a live lease on a draining worker, so the agent must
// still deregister — exactly once — and return nil.
func TestAgentDeregistersWhenCancelledMidRegister(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	registered := make(chan struct{})
	var deregs atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/cluster/register":
			close(registered)
			<-ctx.Done() // the answer never reaches the agent
		case "/v1/cluster/deregister":
			deregs.Add(1)
		default:
			http.NotFound(w, r)
		}
	}))
	defer coord.Close()

	done := make(chan error, 1)
	agent := &Agent{Coordinator: coord.URL, ID: "w", Addr: "http://w"}
	go func() { done <- agent.Run(ctx) }()
	<-registered
	cancel()
	if err := <-done; err != nil {
		t.Errorf("Run = %v, want nil", err)
	}
	if n := deregs.Load(); n != 1 {
		t.Errorf("%d deregisters arrived, want exactly 1", n)
	}
}

// TestBackoffSchedule: the unjittered delay doubles per consecutive
// failure from the base up to the cap — the agent's 1s to 30s.
func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		16 * time.Second, 30 * time.Second, 30 * time.Second,
	}
	for i, w := range want {
		if got := backoff(time.Second, 30*time.Second, i+1); got != w {
			t.Errorf("failure %d: delay %v, want %v", i+1, got, w)
		}
	}
	if got := backoff(time.Second, 30*time.Second, 50); got != 30*time.Second {
		t.Errorf("failure 50: delay %v, want the 30s cap", got)
	}
}

// TestJitterBounds: jitter keeps the delay within [d/2, 3d/2).
func TestJitterBounds(t *testing.T) {
	d := 4 * time.Second
	for i := 0; i < 200; i++ {
		j := jitter(d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("jitter(%v) = %v outside [%v, %v)", d, j, d/2, d+d/2)
		}
	}
	if jitter(0) != 0 {
		t.Errorf("jitter(0) should be 0")
	}
}
