// Package server turns the wavescalar simulator into a long-running
// simulation-as-a-service daemon: an HTTP/JSON API over the exploration
// engine, built for many concurrent clients evaluating design points
// against a shared, content-addressed result store.
//
// The serving model, in one pass through a request. POST /v1/runs, plain
// or scenario, is resolve → Server.cells → render:
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
//   - JSON bodies are bounded (1 MiB; 413 beyond it), read whole before
//     any of them is parsed.
//   - A /v1/runs body answered before from cache hits alone is answered
//     again from a bounded memo of its encoded response, without decoding
//     (runMemo). Its cells are still looked up, once each, and the memo
//     is used only while every one is cached and unchanged.
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

	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/scenario"
)

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

// Server is the daemon: an http.Handler plus the worker pool behind it.
// Construct with New, serve it with net/http, then Shutdown to drain.
type Server struct {
	workers        int
	queueDepth     int
	requestTimeout time.Duration
	exploreOpts    []explore.Option

	// Scenario-store persistence (WithScenarioStore).
	scnPath string
	scnFile *os.File

	exp     *explore.Explorer
	mux     *http.ServeMux
	metrics *metrics
	flight  *flightGroup
	memo    runMemo // POST /v1/runs answers by request body
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
	switch jb.kind {
	case jobCells:
		for _, lc := range jb.cells {
			s.runCell(lc)
		}

	case jobSweep:
		jb.setState(stateRunning)
		spec := jb.sweep
		results, err := s.exp.SweepWith(jb.ctx, spec.points, spec.apps, explore.SweepSpec{
			Scale:        spec.scale,
			ThreadCounts: spec.threadCounts,
			Progress:     jb.setProgress,
		})
		cancelled := jb.ctx.Err() != nil
		jb.finish(results, err, cancelled)
		_, p, _, _ := jb.snapshot()
		s.countSims(p)
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
