package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavescalar/internal/explore"
	"wavescalar/internal/version"
)

func discard(string, ...any) {}

func cellKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cellkey-%04d", i)
	}
	return keys
}

func registryOf(ids ...string) *Registry {
	r := NewRegistry(time.Minute, discard)
	for _, id := range ids {
		r.Register(RegisterRequest{ID: id, Addr: "http://" + id})
	}
	return r
}

// firstOwners maps every key to the ID of its first owner.
func firstOwners(r *Registry, keys []string) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = r.Owners(k, 1)[0].ID
	}
	return out
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(time.Minute, discard)
	r.Register(RegisterRequest{ID: "w1", Addr: "http://a:1", Version: version.Get("wsd")})
	r.Register(RegisterRequest{ID: "w2", Addr: "http://b:1"})
	// Re-registration refreshes the address; it is still one worker.
	r.Register(RegisterRequest{ID: "w1", Addr: "http://a:2"})

	if !r.Heartbeat("w1", 3) {
		t.Fatal("heartbeat for registered worker failed")
	}
	if r.Heartbeat("ghost", 0) {
		t.Fatal("heartbeat for unknown worker succeeded")
	}

	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].ID != "w1" || snap[1].ID != "w2" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Addr != "http://a:2" || snap[0].Busy != 3 {
		t.Errorf("w1 = %+v, want the refreshed address and heartbeat-reported busy 3", snap[0])
	}

	if !r.Deregister("w2") || r.Deregister("w2") {
		t.Fatal("deregister should succeed once")
	}
	// Ownership is read off the same table: w2 is gone from it, and w1
	// is dispatched to at its refreshed address.
	if owners := r.Owners("k", 3); len(owners) != 1 || owners[0].ID != "w1" || owners[0].Addr != "http://a:2" {
		t.Fatalf("Owners after deregister = %+v, want w1 at http://a:2 alone", owners)
	}
}

// TestRegistryLeaseExpiry: nothing sweeps the table in the background — a
// lapsed lease is dropped, counted once and logged once by the next call
// that reads it.
func TestRegistryLeaseExpiry(t *testing.T) {
	var logged []string
	r := NewRegistry(50*time.Millisecond, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	r.Register(RegisterRequest{ID: "w1", Addr: "http://a:1"})
	r.Register(RegisterRequest{ID: "w2", Addr: "http://b:1"})

	// Within the lease: nothing expires.
	if snap := r.Snapshot(); len(snap) != 2 || r.Expirations() != 0 {
		t.Fatalf("inside the lease: snapshot %+v, %d expirations", snap, r.Expirations())
	}
	// Keep w2 alive, let w1 lapse.
	time.Sleep(30 * time.Millisecond)
	if !r.Heartbeat("w2", 0) {
		t.Fatal("w2's heartbeat inside its lease was refused")
	}
	time.Sleep(30 * time.Millisecond)
	if r.Heartbeat("w1", 0) {
		t.Error("a heartbeat revived a lapsed lease; the worker must re-register")
	}
	for _, k := range cellKeys(20) {
		if owners := r.Owners(k, 2); len(owners) != 1 || owners[0].ID != "w2" {
			t.Fatalf("Owners(%s) = %+v, want the heartbeating w2 alone", k, owners)
		}
	}
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].ID != "w2" {
		t.Errorf("snapshot = %+v, want w2 alone", snap)
	}
	if r.Expirations() != 1 {
		t.Errorf("expirations = %d, want 1 however many calls read the table", r.Expirations())
	}
	if len(logged) != 1 || logged[0] != "cluster: expired worker lease(s): [w1]" {
		t.Errorf("logged %q, want one line naming w1", logged)
	}
}

// TestRegistryRejoinOwnsCells is the witness for the seam this table
// closed. Membership used to be kept twice — the lease map and a hash ring
// mirrored from it by join/leave callbacks that ran outside the map's
// lock. Hold the leave callback of a Deregister (or an expiry) of w, let w
// re-register in the window (the ring's Add was a no-op: w was still on
// it), release the callback (the ring removed w), and w was registered,
// heartbeating 200 and owned no cell until it died:
//
//	registered, heartbeating worker is not on the ring: owners=[]
//
// With ownership computed from the lease table there is no callback to
// hold and no second structure to fall behind, so what is left to check is
// the sequence itself: a worker that re-registers after a deregister, and
// after an expiry, owns cells again at once.
func TestRegistryRejoinOwnsCells(t *testing.T) {
	const ttl = 40 * time.Millisecond
	r := NewRegistry(ttl, discard)
	w := RegisterRequest{ID: "w", Addr: "http://w"}
	owns := func(when string) {
		t.Helper()
		if !r.Heartbeat("w", 0) {
			t.Fatalf("%s: w's heartbeat was refused", when)
		}
		if owners := r.Owners("any-cell", 3); len(owners) != 1 || owners[0].ID != "w" || owners[0].Addr != "http://w" {
			t.Fatalf("%s: registered, heartbeating worker owns nothing: owners=%+v", when, owners)
		}
	}
	r.Register(w)
	owns("first registration")

	r.Deregister("w")
	if len(r.Owners("any-cell", 3)) != 0 {
		t.Fatal("a deregistered worker still owns cells")
	}
	r.Register(w)
	owns("re-register after deregister")

	time.Sleep(ttl + 10*time.Millisecond)
	if len(r.Owners("any-cell", 3)) != 0 {
		t.Fatal("a worker past its lease still owns cells")
	}
	r.Register(w)
	owns("re-register after expiry")
	if r.Expirations() != 1 {
		t.Errorf("expirations = %d, want 1", r.Expirations())
	}
}

// TestRegistryChurnNeverLosesAWorker: goroutines register, heartbeat,
// deregister and let leases lapse, each on its own ID, all on one table.
// The invariant: an ID whose last event is a Register or a successful
// Heartbeat still inside the lease is in Snapshot and among the owners of
// any key, and its next heartbeat inside the lease is accepted. Run under
// -race this is also the table's locking test.
func TestRegistryChurnNeverLosesAWorker(t *testing.T) {
	const (
		ttl     = 40 * time.Millisecond
		workers = 8
		steps   = 120
	)
	r := NewRegistry(ttl, discard)
	var checks, lapses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			id := fmt.Sprintf("w%d", g)
			held := false       // the last event left id holding a lease
			var since time.Time // taken before that event's call
			// present checks id against the table; it counts only when the
			// whole check ran inside the lease renewed at or after `since`.
			present := func(step int) {
				inOwners := false
				for _, o := range r.Owners(fmt.Sprintf("k%d", step), workers+1) {
					inOwners = inOwners || o.ID == id
				}
				inSnap := false
				for _, wi := range r.Snapshot() {
					inSnap = inSnap || wi.ID == id
				}
				if time.Since(since) >= ttl {
					return // too slow to tell: the lease may really have lapsed
				}
				checks.Add(1)
				if !inOwners || !inSnap {
					t.Errorf("%s step %d: holds a live lease but owners=%v snapshot=%v", id, step, inOwners, inSnap)
				}
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(10); {
				case op == 0 && held: // miss heartbeats until the lease lapses
					time.Sleep(ttl + 5*time.Millisecond)
					if r.Heartbeat(id, 0) {
						t.Errorf("%s step %d: heartbeat renewed a lease that had lapsed", id, step)
					}
					lapses.Add(1)
					held = false
				case op == 1:
					r.Deregister(id)
					held = false
				case op <= 4:
					since, held = time.Now(), true
					r.Register(RegisterRequest{ID: id, Addr: "http://" + id})
					present(step)
				default:
					start := time.Now()
					ok := r.Heartbeat(id, step)
					switch {
					case ok:
						since = start
						present(step)
					case held && time.Since(since) < ttl:
						t.Errorf("%s step %d: heartbeat inside the lease was refused", id, step)
					default:
						held = false
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if checks.Load() == 0 {
		t.Fatal("no check ran inside a lease; the host is too slow for this test's lease")
	}
	if got := r.Expirations(); got < uint64(lapses.Load()) {
		t.Errorf("expirations = %d, want at least the %d leases the test let lapse", got, lapses.Load())
	}
}

// TestInflightSurvivesReregister: a worker that deregisters and registers
// again while a dispatch to it is in flight gets a fresh lease. The
// dispatch's release and outcome belong to the lease its increment hit —
// the dropped one — so the fresh lease reads Inflight 0 and no outcome,
// where an ID lookup at release time read Inflight -1 on it.
func TestInflightSurvivesReregister(t *testing.T) {
	arrived, unblock := make(chan struct{}), make(chan struct{})
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ExecRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		close(arrived)
		<-unblock
		json.NewEncoder(w).Encode(ExecResponse{Cell: explore.Cell{Key: req.Key, App: req.App, AIPC: 1.5, Threads: 1}})
	}))
	defer ws.Close()
	c := NewCoordinator(time.Minute)
	w1 := RegisterRequest{ID: "w1", Addr: ws.URL}
	c.Registry().Register(w1)

	cfg, app, sc, counts := runArgs()
	done := make(chan error, 1)
	go func() {
		_, err := c.RunCell(context.Background(), "key-1", cfg, app, sc, counts)
		done <- err
	}()
	<-arrived
	if snap := c.Registry().Snapshot(); len(snap) != 1 || snap[0].Inflight != 1 {
		t.Fatalf("mid-attempt snapshot = %+v, want w1 with 1 in flight", snap)
	}
	c.Registry().Deregister("w1")
	c.Registry().Register(w1)
	close(unblock)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snap := c.Registry().Snapshot()
	if len(snap) != 1 || snap[0].Inflight != 0 || snap[0].Completed != 0 {
		t.Errorf("fresh lease after the attempt = %+v, want Inflight 0 and no outcome", snap)
	}
}

func TestOwnersEmptyAndSingle(t *testing.T) {
	r := registryOf()
	if got := r.Owners("k", 3); got != nil {
		t.Fatalf("empty table Owners = %v", got)
	}
	r.Register(RegisterRequest{ID: "w1", Addr: "http://w1"})
	if got := r.Owners("k", 0); got != nil {
		t.Fatalf("Owners(k, 0) = %v", got)
	}
	for _, k := range cellKeys(50) {
		if owners := r.Owners(k, 1); len(owners) != 1 || owners[0].ID != "w1" {
			t.Fatalf("Owners(%s) = %+v; want w1", k, owners)
		}
	}
}

func TestOwnersDistinct(t *testing.T) {
	r := registryOf("w1", "w2", "w3")
	for _, k := range cellKeys(100) {
		owners := r.Owners(k, 5) // capped at the live count
		if len(owners) != 3 {
			t.Fatalf("Owners(%s) = %+v; want 3 distinct", k, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o.ID] {
				t.Fatalf("Owners(%s) repeats %s", k, o.ID)
			}
			seen[o.ID] = true
		}
		if first := r.Owners(k, 1); first[0].ID != owners[0].ID {
			t.Fatalf("Owners(%s, 1) = %s, not the head of Owners(%s, 5) = %s", k, first[0].ID, k, owners[0].ID)
		}
	}
}

// TestOwnersDeterministic proves two independently filled tables agree —
// the property that lets a restarted coordinator re-derive the same shards.
func TestOwnersDeterministic(t *testing.T) {
	a, b := registryOf("w3", "w1", "w2"), registryOf("w1", "w2", "w3")
	for _, k := range cellKeys(200) {
		oa, ob := a.Owners(k, 3), b.Owners(k, 3)
		for i := range oa {
			if oa[i].ID != ob[i].ID {
				t.Fatalf("tables disagree on %s: %+v vs %+v", k, oa, ob)
			}
		}
	}
}

// TestOwnersExactRemap is the rendezvous-hashing contract, exactly: a
// worker leaving changes the first owner of precisely the keys it owned
// (each to the key's former second owner), a worker joining changes
// precisely the keys it wins, and every other key stays on the worker
// whose cache is warm for it.
func TestOwnersExactRemap(t *testing.T) {
	workers := []string{"w1", "w2", "w3", "w4", "w5"}
	r := registryOf(workers...)
	keys := cellKeys(1000)
	before := firstOwners(r, keys)
	second := make(map[string]string, len(keys))
	share := map[string]int{}
	for _, k := range keys {
		second[k] = r.Owners(k, 2)[1].ID
		share[before[k]]++
	}
	for _, id := range workers {
		if share[id] < len(keys)/len(workers)/2 {
			t.Errorf("worker %s owns only %d/%d keys — badly unbalanced", id, share[id], len(keys))
		}
	}

	r.Deregister("w2")
	for k, now := range firstOwners(r, keys) {
		want := before[k]
		if want == "w2" {
			want = second[k]
		}
		if now != want {
			t.Fatalf("w2 left: key %s (owner %s, then %s) is now on %s", k, before[k], second[k], now)
		}
	}

	// Rejoining restores the original assignment exactly.
	r.Register(RegisterRequest{ID: "w2", Addr: "http://w2"})
	for k, now := range firstOwners(r, keys) {
		if now != before[k] {
			t.Fatalf("w2 rejoined: key %s owned by %s, want %s", k, now, before[k])
		}
	}

	r.Register(RegisterRequest{ID: "w6", Addr: "http://w6"})
	won := 0
	for k, now := range firstOwners(r, keys) {
		if now == "w6" {
			won++
		} else if now != before[k] {
			t.Fatalf("w6 joined: key %s moved between survivors, %s to %s", k, before[k], now)
		}
	}
	if won < len(keys)/6/2 {
		t.Errorf("a sixth worker won only %d/%d keys", won, len(keys))
	}
}
