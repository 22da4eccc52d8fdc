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

// Options configures a Coordinator. The zero value is usable: every
// field has a production-sane default.
type Options struct {
	// Lease is how long a registration lives without a heartbeat
	// (default 15s). Workers should heartbeat at a third of it.
	Lease time.Duration
	// Attempts bounds how many workers one cell is tried on before the
	// dispatcher gives up and the cell falls back to local simulation
	// (default 3). Attempts walk the cell's distinct owners in rank order,
	// so a dead owner's cells fail over to the next-ranked worker.
	Attempts int
	// Backoff is the base delay between a cell's attempts, doubling each
	// retry (default 250ms).
	Backoff time.Duration
	// ExecTimeout bounds one remote execution attempt (default 2m). It
	// is the slow-worker failover: a wedged worker loses the cell to the
	// next owner even though its TCP connection is healthy.
	ExecTimeout time.Duration
	// Client is the HTTP client for worker calls (default: a dedicated
	// client with sane connection pooling).
	Client *http.Client
	// Logf receives dispatch and lease-expiry diagnostics (default
	// log.Printf).
	Logf func(format string, args ...any)
}

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
	opt Options
	reg *Registry

	dispatched  atomic.Uint64
	remoteCells atomic.Uint64
	requeues    atomic.Uint64
	remoteErrs  atomic.Uint64
}

// NewCoordinator builds a coordinator.
func NewCoordinator(opt Options) *Coordinator {
	if opt.Lease <= 0 {
		opt.Lease = 15 * time.Second
	}
	if opt.Attempts <= 0 {
		opt.Attempts = 3
	}
	if opt.Backoff <= 0 {
		opt.Backoff = 250 * time.Millisecond
	}
	if opt.ExecTimeout <= 0 {
		opt.ExecTimeout = 2 * time.Minute
	}
	if opt.Client == nil {
		opt.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	return &Coordinator{opt: opt, reg: NewRegistry(opt.Lease, opt.Logf)}
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
// tries up to Attempts distinct workers in the key's owner order with
// exponential backoff between attempts; a failure after the last worker
// (or no live worker) returns an error and the engine simulates locally.
// The returned cell's key is verified against the requested key, so a
// worker whose key schema drifted (mixed-version fabric) can never commit
// a result under the wrong address.
func (c *Coordinator) RunCell(ctx context.Context, key string, cfg sim.Config, app string, sc workload.Scale, threadCounts []int) (explore.Cell, error) {
	req := ExecRequest{Key: key, Config: cfg, App: app, Scale: sc, ThreadCounts: threadCounts}
	req.Config.Trace = nil // observability never crosses the wire
	var lastErr error
	for attempt := 0; attempt < c.opt.Attempts; attempt++ {
		owners := c.reg.Owners(key, c.opt.Attempts)
		if len(owners) == 0 {
			if lastErr != nil {
				return explore.Cell{}, lastErr
			}
			return explore.Cell{}, ErrNoWorkers
		}
		w := owners[attempt%len(owners)]
		if attempt > 0 {
			c.requeues.Add(1)
			delay := c.opt.Backoff << (attempt - 1)
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
		c.opt.Logf("cluster: cell %s attempt %d/%d on %s failed: %v", key, attempt+1, c.opt.Attempts, w.ID, err)
		lastErr = err
	}
	return explore.Cell{}, fmt.Errorf("cluster: cell %s exhausted %d attempts: %w", key, c.opt.Attempts, lastErr)
}

// execOn performs one POST /v1/cluster/execute against a worker.
func (c *Coordinator) execOn(ctx context.Context, w WorkerInfo, req ExecRequest) (explore.Cell, error) {
	c.dispatched.Add(1)
	ctx, cancel := context.WithTimeout(ctx, c.opt.ExecTimeout)
	defer cancel()
	var er ExecResponse
	if err := postJSON(ctx, c.opt.Client, w.Addr+"/v1/cluster/execute", req, &er); err != nil {
		return explore.Cell{}, fmt.Errorf("worker %s: %w", w.ID, err)
	}
	if er.Cell.Key != req.Key {
		return explore.Cell{}, fmt.Errorf("worker %s (version %s): returned key %s for requested %s — mixed-version key schema?",
			w.ID, er.Version.Version, er.Cell.Key, req.Key)
	}
	return er.Cell, nil
}
