// Package server turns the wavescalar simulator into a long-running
// simulation-as-a-service daemon: an HTTP/JSON API over the exploration
// engine, built for many concurrent clients evaluating design points
// against a shared, content-addressed result store.
//
// The serving model, in one pass through a request. Every route that
// answers with a cell — POST /v1/runs (plain or scenario) and
// POST /v1/cluster/execute — is resolve → Server.cells → render, so what
// follows holds for both:
//
//   - The request resolves to N cells (one; one per phase for a scenario):
//     a simulator configuration, workload, scale and thread counts, plus
//     internal/explore's content-addressed cell key. A cache hit
//     (in-memory, or replayed from the JSONL journal at startup) answers
//     with zero simulation.
//   - Each missing key joins a singleflight group keyed by the same key:
//     the request leading a key arranges its simulation, every concurrent
//     request for it waits on the leader's result, so N identical
//     in-flight requests cost exactly one simulation per distinct cell.
//   - The keys a request leads go to the admission queue as one job. The
//     queue is bounded: when it is full the leader is rejected with 429
//     and a Retry-After hint — backpressure, not collapse: latency
//     degrades before throughput does. A request that leads nothing is
//     never admitted.
//   - A fixed worker pool drains the queue. Workers run a job's cells in
//     order through Explorer.RunOne (cache + journal write-through) and
//     sweeps through Explorer.SweepWith, under the server's base context
//     and the sweep's own, so a client disconnect never kills a simulation
//     other waiters share; the request's timeout bounds only its wait.
//   - JSON bodies are bounded (1 MiB; 413 beyond it).
//   - Shutdown stops admissions (new work gets 503), rejects queued jobs
//     that have not started — completing every call they led — lets
//     in-flight simulations drain (escalating to context cancellation —
//     sim.Processor.RunContext — if the drain deadline passes), then
//     flushes and closes the journal.
//
// GET /metrics exposes the whole pipeline in Prometheus text format:
// request counts and latencies, queue depth, worker utilization, cache
// hits and misses, and simulations completed/failed/cancelled.
package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wavescalar/internal/cluster"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/scenario"
)

// Role selects how a daemon participates in the distributed sweep
// fabric. Every role serves the full single-node API; the roles differ
// only in where sweep cells execute.
type Role string

const (
	// RoleSingle (the default) simulates everything locally.
	RoleSingle Role = "single"
	// RoleCoordinator shards sweep cells across registered workers by
	// rendezvous hashing, streams results into its own cache/journal,
	// and serves the /v1/cluster registration endpoints. With no workers
	// registered it degrades to RoleSingle behavior.
	RoleCoordinator Role = "coordinator"
	// RoleWorker executes cells on behalf of a coordinator via
	// POST /v1/cluster/execute (an Agent keeps it registered; see
	// cluster.Agent). It still serves local runs and sweeps.
	RoleWorker Role = "worker"
)

// ParseRole maps the -role flag values to Roles.
func ParseRole(s string) (Role, error) {
	switch Role(s) {
	case RoleSingle, RoleCoordinator, RoleWorker:
		return Role(s), nil
	}
	return "", fmt.Errorf("%w: unknown role %q (single, coordinator, worker)", design.ErrBadOptions, s)
}

// Option configures New (functional options, mirroring explore.New).
type Option func(*Server) error

// WithWorkers sets the worker-pool size (default GOMAXPROCS). Each cells
// job occupies one worker for the simulations it leads; each sweep job
// occupies one worker and fans out internally to the explorer's
// parallelism.
func WithWorkers(n int) Option {
	return func(s *Server) error {
		if n < 1 {
			return fmt.Errorf("%w: workers %d must be positive", design.ErrBadOptions, n)
		}
		s.workers = n
		return nil
	}
}

// WithQueueDepth bounds the admission queue (default 64). A full queue
// rejects new jobs with 429 — the backpressure that keeps an overloaded
// daemon serving instead of accumulating unbounded work.
func WithQueueDepth(n int) Option {
	return func(s *Server) error {
		if n < 1 {
			return fmt.Errorf("%w: queue depth %d must be positive", design.ErrBadOptions, n)
		}
		s.queueDepth = n
		return nil
	}
}

// WithRequestTimeout bounds how long a synchronous run request waits for
// its simulation (default 60s). The simulation itself continues and is
// cached, so a timed-out client that retries gets a cache hit.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) error {
		if d <= 0 {
			return fmt.Errorf("%w: request timeout %v must be positive", design.ErrBadOptions, d)
		}
		s.requestTimeout = d
		return nil
	}
}

// WithCacheLimit caps the result cache at n cells with LRU eviction —
// the memory bound a long-running daemon wants (the CLIs default to
// unlimited).
func WithCacheLimit(n int) Option {
	return func(s *Server) error {
		s.exploreOpts = append(s.exploreOpts, explore.WithCacheLimit(n))
		return nil
	}
}

// WithJournal backs the cache with a JSONL journal. With resume set,
// existing records are replayed at startup — a warm restart serves every
// previously simulated request with zero simulations.
func WithJournal(path string, resume bool) Option {
	return func(s *Server) error {
		s.exploreOpts = append(s.exploreOpts, explore.WithJournal(path, resume))
		return nil
	}
}

// WithParallelism sets how many simulations a sweep job runs concurrently
// (default GOMAXPROCS).
func WithParallelism(n int) Option {
	return func(s *Server) error {
		s.exploreOpts = append(s.exploreOpts, explore.WithParallelism(n))
		return nil
	}
}

// WithRole selects the daemon's fabric role (default RoleSingle).
func WithRole(r Role) Option {
	return func(s *Server) error {
		if _, err := ParseRole(string(r)); err != nil {
			return err
		}
		s.role = r
		return nil
	}
}

// WithLease sets how long a worker's registration lives without a
// heartbeat (default, and <= 0, 15s; only meaningful with
// WithRole(RoleCoordinator)).
func WithLease(d time.Duration) Option {
	return func(s *Server) error {
		s.lease = d
		return nil
	}
}

// WithTenantQuota caps each tenant (the X-Tenant request header;
// "default" when absent) at n queued-or-running jobs. Over-quota
// admissions are rejected with 429 + Retry-After, the same backpressure
// shape as a full queue — so one tenant's sweep storm cannot starve the
// fabric for everyone else. n = 0 (the default) disables quotas.
func WithTenantQuota(n int) Option {
	return func(s *Server) error {
		if n < 0 {
			return fmt.Errorf("%w: tenant quota %d must be non-negative", design.ErrBadOptions, n)
		}
		s.quotas = newTenantQuotas(n)
		return nil
	}
}

// Server is the daemon: an http.Handler plus the worker pool behind it.
// Construct with New, serve it with net/http, then Shutdown to drain.
type Server struct {
	workers        int
	queueDepth     int
	requestTimeout time.Duration
	exploreOpts    []explore.Option
	role           Role
	lease          time.Duration
	quotas         *tenantQuotas

	// Scenario-store persistence (WithScenarioStore).
	scnPath string
	scnFile *os.File

	exp     *explore.Explorer
	coord   *cluster.Coordinator // non-nil only for RoleCoordinator
	mux     *http.ServeMux
	metrics *metrics
	flight  *flightGroup
	jobs    *registry
	queue   chan *job

	// The content-addressed scenario store behind POST /v1/scenarios:
	// digest (scenario.Digest) → validated document.
	scnMu     sync.Mutex
	scenarios map[string]*scenario.Scenario

	admitMu sync.Mutex
	closing bool

	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup
	busy       atomic.Int64
	reqSeq     atomic.Uint64 // request ids for panic correlation
	start      time.Time
}

// New builds and starts a server: options are validated eagerly (errors
// wrap design.ErrBadOptions), the journal (if any) is opened and
// replayed, and the worker pool is running on return.
func New(opts ...Option) (*Server, error) {
	s := &Server{
		workers:        runtime.GOMAXPROCS(0),
		queueDepth:     64,
		requestTimeout: 60 * time.Second,
		role:           RoleSingle,
		metrics:        newMetrics(),
		flight:         newFlightGroup(),
		jobs:           newRegistry(),
		scenarios:      make(map[string]*scenario.Scenario),
		start:          time.Now(),
	}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	if s.quotas == nil {
		s.quotas = newTenantQuotas(0)
	}
	if s.role == RoleCoordinator {
		// The coordinator's exploration engine tries the fabric first on
		// every sweep cache miss and falls back to local simulation, so
		// an empty or degraded fabric still completes every sweep.
		s.coord = cluster.NewCoordinator(s.lease)
		s.exploreOpts = append(s.exploreOpts, explore.WithRunner(s.coord.RunCell))
	}
	exp, err := explore.New(s.exploreOpts...)
	if err != nil {
		return nil, err
	}
	s.exp = exp
	if err := s.openScenarioStore(); err != nil {
		exp.Close()
		return nil, err
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.queue = make(chan *job, s.queueDepth)
	s.mux = s.routes()
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Resumed reports how many journal records a warm restart replayed.
func (s *Server) Resumed() int { return s.exp.Resumed() }

// Busy reports how many pool workers are executing a job right now — the
// fabric agent samples it for heartbeats so the coordinator can see load.
func (s *Server) Busy() int { return int(s.busy.Load()) }

// Role reports the daemon's fabric role.
func (s *Server) Role() Role { return s.role }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// isClosing reports whether admissions have stopped.
func (s *Server) isClosing() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.closing
}

// enqueue admits a job to the bounded queue, or fails immediately with
// errQueueFull (backpressure) or errShuttingDown (drain in progress).
func (s *Server) enqueue(jb *job) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.closing {
		return errShuttingDown
	}
	select {
	case s.queue <- jb:
		return nil
	default:
		return errQueueFull
	}
}

// worker drains the queue until Shutdown closes it. Jobs popped after
// admissions stop are rejected, not run: shutdown drains in-flight work
// but does not start more.
func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		if jb.block != nil { // test hook: park deterministically
			<-jb.block
			continue
		}
		if s.isClosing() {
			s.rejectQueued(jb)
			continue
		}
		s.busy.Add(1)
		s.execute(jb)
		s.busy.Add(-1)
	}
}

// rejectQueued resolves a job that shutdown overtook before it started.
func (s *Server) rejectQueued(jb *job) {
	defer s.quotas.release(jb.tenant)
	switch jb.kind {
	case jobCells:
		for _, lc := range jb.cells {
			s.metrics.add(&s.metrics.simsCancelled, 1)
			s.flight.complete(lc.spec.key, lc.call, explore.Cell{}, errShuttingDown)
		}
	case jobSweep:
		s.metrics.add(&s.metrics.jobsCancelled, 1)
		jb.finish(nil, errShuttingDown, true)
	}
}

// execute runs one job. Cells run in request order on the server's base
// context (see runCell); a sweep runs on its own cancellable context.
func (s *Server) execute(jb *job) {
	defer s.quotas.release(jb.tenant)
	switch jb.kind {
	case jobCells:
		for _, lc := range jb.cells {
			s.runCell(lc)
		}

	case jobSweep:
		jb.setState(stateRunning)
		spec := jb.sweep
		var local localSims
		results, err := s.exp.SweepWith(jb.ctx, spec.points, spec.apps, explore.SweepSpec{
			Scale:        spec.scale,
			ThreadCounts: spec.threadCounts,
			Fault:        spec.fault,
			Progress: func(p explore.Progress) {
				local.observe(p)
				jb.setProgress(p)
			},
		})
		cancelled := jb.ctx.Err() != nil
		jb.finish(results, err, cancelled)
		s.metrics.add(&s.metrics.simsCompleted, local.completed)
		s.metrics.add(&s.metrics.simsFailed, local.failed)
		switch {
		case cancelled:
			s.metrics.add(&s.metrics.jobsCancelled, 1)
		case err != nil:
			s.metrics.add(&s.metrics.jobsFailed, 1)
		default:
			s.metrics.add(&s.metrics.jobsCompleted, 1)
		}
	}
}

// localSims counts the cells of one sweep that were simulated on this node,
// for wsd_sims_total. A sweep's Simulated also counts cells a worker ran
// (the worker counts those itself) and cells copied from a cache twin
// (no simulation ran), and Failed does not say which of them failed; but
// progress arrives once per cell, serialized, so the source of each cell
// is the counter that moved with it.
type localSims struct {
	prev              explore.Progress
	completed, failed uint64
}

func (l *localSims) observe(p explore.Progress) {
	if p.Simulated > l.prev.Simulated && p.Remote == l.prev.Remote && p.Reused == l.prev.Reused {
		if p.Failed > l.prev.Failed {
			l.failed++
		} else {
			l.completed++
		}
	}
	l.prev = p
}

// Shutdown drains the server gracefully: admissions stop immediately (new
// requests get 503, queued-but-unstarted jobs are rejected), in-flight
// simulations run to completion and their results are cached, journaled
// and delivered to waiting clients. If ctx expires first, the base
// context is cancelled, aborting the remaining simulations within a few
// thousand simulated cycles. The journal is flushed and closed last, so
// every completed cell survives the restart.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	already := s.closing
	s.closing = true
	if !already {
		close(s.queue)
	}
	s.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelBase()
		<-done
	}
	s.cancelBase()
	err := s.exp.Close()
	if s.scnFile != nil {
		if cerr := s.scnFile.Close(); err == nil {
			err = cerr
		}
		s.scnFile = nil
	}
	return err
}

// Close shuts down immediately: in-flight simulations are cancelled, not
// drained.
func (s *Server) Close() error {
	s.cancelBase()
	return s.Shutdown(context.Background())
}
