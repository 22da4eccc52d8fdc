package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"
	"time"

	"wavescalar/internal/version"
)

// WorkerInfo is one registered worker's observable state, as reported by
// GET /v1/cluster/workers and sampled by the coordinator's /metrics.
type WorkerInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Version is the worker's build identity (mixed-version diagnosis).
	Version version.Info `json:"version"`
	// RegisteredAt / LastHeartbeat are Unix seconds.
	RegisteredAt  int64 `json:"registered_at"`
	LastHeartbeat int64 `json:"last_heartbeat"`
	// Inflight counts cells the coordinator has dispatched to this
	// worker and not yet seen return; Busy is the worker's own last
	// heartbeat-reported simulation count.
	Inflight int `json:"inflight"`
	Busy     int `json:"busy"`
	// Completed and Failed count dispatch outcomes attributed to this
	// worker by the coordinator.
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
}

// lease is the table's record for one worker.
type lease struct {
	info     WorkerInfo
	lastBeat time.Time
}

// Registry is the fabric's membership: one table of worker leases under
// one mutex. Nothing is derived from it and kept beside it — which worker
// owns a cell is computed from the live leases on every call (Owners) —
// and there is no expiry thread: a lapsed lease is dropped by whichever
// call next reads the table.
type Registry struct {
	ttl  time.Duration
	logf func(format string, args ...any)

	mu          sync.Mutex
	workers     map[string]*lease
	expirations uint64
}

// NewRegistry returns an empty registry whose leases last ttl; logf
// receives one line per batch of dropped leases.
func NewRegistry(ttl time.Duration, logf func(format string, args ...any)) *Registry {
	return &Registry{ttl: ttl, logf: logf, workers: make(map[string]*lease)}
}

// TTL returns the lease duration.
func (r *Registry) TTL() time.Duration { return r.ttl }

// live runs fn on the table under the lock, after dropping (and counting)
// every lease that lapsed before now — so no reader ever sees a dead lease
// and each one is counted once, by the first call to notice it. Cells in
// flight on a dropped worker fail over through the dispatcher's retry path
// when their HTTP calls error out.
func (r *Registry) live(fn func(now time.Time)) {
	now := time.Now()
	var lapsed []string
	r.mu.Lock()
	for id, l := range r.workers {
		if now.Sub(l.lastBeat) > r.ttl {
			lapsed = append(lapsed, id)
			delete(r.workers, id)
			r.expirations++
		}
	}
	fn(now)
	r.mu.Unlock()
	if len(lapsed) > 0 {
		sort.Strings(lapsed)
		r.logf("cluster: expired worker lease(s): %v", lapsed)
	}
}

// Register adds or refreshes a worker. Re-registering a live ID updates
// its address and version and renews its lease; its counters and the
// cells it owns are unchanged.
func (r *Registry) Register(req RegisterRequest) {
	r.live(func(now time.Time) {
		l, ok := r.workers[req.ID]
		if !ok {
			l = &lease{info: WorkerInfo{ID: req.ID, RegisteredAt: now.Unix()}}
			r.workers[req.ID] = l
		}
		l.info.Addr = req.Addr
		l.info.Version = req.Version
		l.info.LastHeartbeat = now.Unix()
		l.lastBeat = now
	})
}

// Heartbeat renews a worker's lease, returning false for an ID without a
// live one (the worker must re-register).
func (r *Registry) Heartbeat(id string, busy int) (ok bool) {
	r.live(func(now time.Time) {
		l := r.workers[id]
		if l == nil {
			return
		}
		ok = true
		l.lastBeat = now
		l.info.LastHeartbeat = now.Unix()
		l.info.Busy = busy
	})
	return ok
}

// Deregister removes a worker immediately — the graceful-drain path,
// versus waiting out the lease.
func (r *Registry) Deregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.workers[id]
	delete(r.workers, id)
	return ok
}

// Expirations returns the lifetime count of dropped leases.
func (r *Registry) Expirations() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.expirations
}

// Owners returns up to n distinct live workers for key, best first — the
// failover sequence for a cell: attempt i goes to Owners(key, n)[i mod
// len]. Workers are ranked by rendezvous (highest-random-weight) hashing:
// each one's score for the key is the first 8 bytes of SHA-256(key, 0x00,
// worker ID), highest first, ties by ID. The rank of any two workers
// depends on nothing but the key and their two IDs, so a worker joining
// takes over exactly the keys it now scores highest on, one leaving hands
// on exactly the keys it owned, and any two coordinators (or one across a
// restart) holding the same leases shard identically — while worker churn
// leaves every other cell on the worker whose cache is warm for it.
func (r *Registry) Owners(key string, n int) []WorkerInfo {
	type ranked struct {
		score uint64
		l     *lease
	}
	var out []WorkerInfo
	r.live(func(time.Time) {
		if n > len(r.workers) {
			n = len(r.workers)
		}
		if n <= 0 {
			return
		}
		rank := make([]ranked, 0, len(r.workers))
		pre := append([]byte(key), 0)
		for id, l := range r.workers {
			sum := sha256.Sum256(append(pre, id...))
			rank = append(rank, ranked{binary.BigEndian.Uint64(sum[:8]), l})
		}
		sort.Slice(rank, func(i, j int) bool {
			if rank[i].score != rank[j].score {
				return rank[i].score > rank[j].score
			}
			return rank[i].l.info.ID < rank[j].l.info.ID
		})
		out = make([]WorkerInfo, n)
		for i := range out {
			out[i] = rank[i].l.info
		}
	})
	return out
}

// acquire counts one dispatch in flight on id's lease and returns that
// lease (nil when id holds none), so that release lands on the lease the
// increment did even if the worker re-registers meanwhile.
func (r *Registry) acquire(id string) *lease {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.workers[id]
	if l != nil {
		l.info.Inflight++
	}
	return l
}

// release ends a dispatch begun by acquire, adding completed and failed to
// the lease's outcome counts (both 0 for a cancelled attempt). A lease
// dropped from the table meanwhile is unreachable, so its counts leave
// with it.
func (r *Registry) release(l *lease, completed, failed uint64) {
	if l == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l.info.Inflight--
	l.info.Completed += completed
	l.info.Failed += failed
}

// Snapshot returns every live worker's state, sorted by ID for stable
// output.
func (r *Registry) Snapshot() []WorkerInfo {
	var out []WorkerInfo
	r.live(func(time.Time) {
		out = make([]WorkerInfo, 0, len(r.workers))
		for _, l := range r.workers {
			out = append(out, l.info)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
