package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// ErrNoWorkers means no worker holds a live lease (yet), so the caller
// should run the cell locally.
var ErrNoWorkers = errors.New("cluster: no workers registered")

// Dispatch policy. A cell is tried on up to dispatchAttempts workers —
// its distinct owners in rank order, so a dead owner's cells fail over to
// the next-ranked worker — before it falls back to local simulation. The
// delay between attempts starts at dispatchBackoff and doubles per retry;
// execTimeout bounds one remote attempt, which is the slow-worker
// failover: a wedged worker loses the cell to the next owner even though
// its TCP connection is healthy.
const (
	dispatchAttempts = 3
	dispatchBackoff  = 250 * time.Millisecond
	execTimeout      = 2 * time.Minute
)

// Stats is a snapshot of the coordinator's dispatch counters for
// /metrics.
type Stats struct {
	// Workers is the count of workers holding a live lease.
	Workers int
	// Dispatched counts cells sent to workers (attempts, not unique
	// cells); RemoteCells counts cells a worker completed.
	Dispatched, RemoteCells uint64
	// Requeues counts failed attempts that were retried on another
	// worker; RemoteErrors counts all failed attempts (the last attempt
	// of a cell fails without a requeue).
	Requeues, RemoteErrors uint64
	// LeaseExpirations counts workers dropped for missing heartbeats.
	LeaseExpirations uint64
}

// Coordinator shards cells across registered workers. It owns the
// registry — the one membership table, which also decides ownership — and
// implements explore.CellRunner for the coordinator's exploration engine.
// It starts nothing: there is no goroutine to stop.
type Coordinator struct {
	reg    *Registry
	client *http.Client

	dispatched  atomic.Uint64
	remoteCells atomic.Uint64
	requeues    atomic.Uint64
	remoteErrs  atomic.Uint64
}

// NewCoordinator builds a coordinator whose worker leases last lease (15s
// when lease <= 0): a worker missing heartbeats that long owns nothing.
// Workers heartbeat at a third of it.
func NewCoordinator(lease time.Duration) *Coordinator {
	if lease <= 0 {
		lease = 15 * time.Second
	}
	return &Coordinator{
		reg: NewRegistry(lease, log.Printf),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
}

// Registry exposes the worker registry (the server's cluster endpoints
// register, heartbeat, and list through it).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Stats snapshots the dispatch counters.
func (c *Coordinator) Stats() Stats {
	// Counting the live leases drops the lapsed ones first, so the two
	// membership numbers of one snapshot agree.
	workers := len(c.reg.Snapshot())
	return Stats{
		Workers:          workers,
		Dispatched:       c.dispatched.Load(),
		RemoteCells:      c.remoteCells.Load(),
		Requeues:         c.requeues.Load(),
		RemoteErrors:     c.remoteErrs.Load(),
		LeaseExpirations: c.reg.Expirations(),
	}
}

// RunCell executes one cell on the fabric — the explore.CellRunner the
// coordinator's exploration engine calls on every sweep cache miss. It
// tries up to dispatchAttempts distinct workers in the key's owner order
// with exponential backoff between attempts; a failure after the last
// worker (or no live worker) returns an error and the engine simulates
// locally.
// The returned cell's key is verified against the requested key, so a
// worker whose key schema drifted (mixed-version fabric) can never commit
// a result under the wrong address.
func (c *Coordinator) RunCell(ctx context.Context, key string, cfg sim.Config, app string, sc workload.Scale, threadCounts []int) (explore.Cell, error) {
	req := ExecRequest{Key: key, Config: cfg, App: app, Scale: sc, ThreadCounts: threadCounts}
	req.Config.Trace = nil // observability never crosses the wire
	var lastErr error
	for attempt := 0; attempt < dispatchAttempts; attempt++ {
		owners := c.reg.Owners(key, dispatchAttempts)
		if len(owners) == 0 {
			if lastErr != nil {
				return explore.Cell{}, lastErr
			}
			return explore.Cell{}, ErrNoWorkers
		}
		w := owners[attempt%len(owners)]
		if attempt > 0 {
			c.requeues.Add(1)
			delay := dispatchBackoff << (attempt - 1)
			select {
			case <-ctx.Done():
				return explore.Cell{}, ctx.Err()
			case <-time.After(delay):
			}
		}
		l := c.reg.acquire(w.ID)
		cell, err := c.execOn(ctx, w, req)
		if err == nil {
			c.remoteCells.Add(1)
			c.reg.release(l, 1, 0)
			return cell, nil
		}
		if ctx.Err() != nil {
			c.reg.release(l, 0, 0)
			return explore.Cell{}, ctx.Err()
		}
		c.remoteErrs.Add(1)
		c.reg.release(l, 0, 1)
		log.Printf("cluster: cell %s attempt %d/%d on %s failed: %v", key, attempt+1, dispatchAttempts, w.ID, err)
		lastErr = err
	}
	return explore.Cell{}, fmt.Errorf("cluster: cell %s exhausted %d attempts: %w", key, dispatchAttempts, lastErr)
}

// execOn performs one POST /v1/cluster/execute against a worker.
func (c *Coordinator) execOn(ctx context.Context, w WorkerInfo, req ExecRequest) (explore.Cell, error) {
	c.dispatched.Add(1)
	ctx, cancel := context.WithTimeout(ctx, execTimeout)
	defer cancel()
	var er ExecResponse
	if err := postJSON(ctx, c.client, w.Addr+"/v1/cluster/execute", req, &er); err != nil {
		return explore.Cell{}, fmt.Errorf("worker %s: %w", w.ID, err)
	}
	if er.Cell.Key != req.Key {
		return explore.Cell{}, fmt.Errorf("worker %s (version %s): returned key %s for requested %s — mixed-version key schema?",
			w.ID, er.Version.Version, er.Cell.Key, req.Key)
	}
	return er.Cell, nil
}
