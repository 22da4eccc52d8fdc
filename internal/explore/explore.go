// Package explore is the design-space exploration engine: it orchestrates
// the paper's Pareto sweep (Section 4.2, >21,000 enumerated configurations
// × 15 workloads) and Table 4 tuning on top of internal/design — both as
// loops over one unit, the cell — adding what a production-scale sweep
// needs and a one-shot goroutine fan-out lacks:
//
//   - a content-addressed result cache (see CellKey), so a cell already
//     cached — by an earlier sweep, tuning or RunOne, or replayed from the
//     journal after a restart — is answered without simulating. The cache
//     is consulted, not reserved: two sweeps running at once on one
//     Explorer that both miss a cell both simulate it (the daemon
//     deduplicates concurrent identical run requests itself, before they
//     reach RunOne);
//   - a JSONL journal appended as each (design point, workload) cell
//     completes, giving checkpoint/resume: a crashed or cancelled sweep
//     restarted with the same journal replays completed cells and
//     simulates only the missing ones;
//   - full context.Context cancellation, threaded down to the simulator's
//     cycle loop, so Ctrl-C or a timeout stops within microseconds and
//     loses at most the cells in flight;
//   - per-sweep progress/ETA reporting (cells done, cache hits, simulated
//     cycles per second).
//
// Every simulation is deterministic, which is what makes the cache sound:
// a cell's key covers everything that can influence its result.
package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"wavescalar/internal/design"
	"wavescalar/internal/fault"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// Progress is a snapshot of a running sweep, delivered to the WithProgress
// callback after every completed cell and retrievable afterwards with
// LastProgress.
type Progress struct {
	// Done cells out of Total (a cell is one design point × workload).
	Done, Total int
	// CacheHits were answered from the cache/journal without simulating;
	// Simulated ran; Failed of the simulated ended in a deterministic
	// error (and were cached as such). Remote counts the simulated cells
	// a CellRunner executed on another node (WithRunner). Batched is always
	// 0; the field stays only because bench/ledger/sweepwl.go reads it.
	CacheHits, Simulated, Failed, Remote, Batched int
	// SimCycles totals simulated machine cycles this sweep.
	SimCycles uint64
	// Elapsed wall time, cells-per-second throughput over it, and the
	// projected time to finish the remaining cells at that rate.
	Elapsed     time.Duration
	CellsPerSec float64
	ETA         time.Duration
}

// Option configures an Explorer (functional options).
type Option func(*Explorer) error

// WithScale sets the workload scale (default workload.Tiny).
func WithScale(sc workload.Scale) Option {
	return func(e *Explorer) error { e.scale = sc; return nil }
}

// WithThreadCounts sets the thread counts tried per cell (default {1}).
func WithThreadCounts(counts ...int) Option {
	return func(e *Explorer) error { e.threadCounts = append([]int(nil), counts...); return nil }
}

// WithParallelism sets the number of concurrent simulations (default, and
// 0, GOMAXPROCS).
func WithParallelism(n int) Option {
	return func(e *Explorer) error { e.parallelism = n; return nil }
}

// WithJournal backs the cache with a JSONL journal at path. With resume
// set, existing records are replayed into the cache before the first
// sweep (a missing file is fine); without it, an existing file is
// truncated. Records are appended and flushed as each cell completes.
func WithJournal(path string, resume bool) Option {
	return func(e *Explorer) error {
		if path == "" {
			return fmt.Errorf("%w: empty journal path", design.ErrBadOptions)
		}
		e.journalPath, e.resume = path, resume
		return nil
	}
}

// WithProgress installs a callback invoked after every completed cell
// (from the sweep's worker goroutines, serialized).
func WithProgress(fn func(Progress)) Option {
	return func(e *Explorer) error { e.progress = fn; return nil }
}

// CellRunner executes one cell somewhere other than this process — the
// hook the distributed sweep fabric plugs in so a coordinator's sweeps
// fan out across worker daemons. The runner receives everything that
// defines the cell (the content-addressed key plus the inputs it was
// derived from) and returns the completed cell, whose Key must equal key.
// Any error — no workers, network failure, retries exhausted — makes the
// sweep fall back to simulating the cell locally, so a degraded fabric
// only loses speed, never results.
type CellRunner func(ctx context.Context, key string, cfg sim.Config, app string, sc workload.Scale, threadCounts []int) (Cell, error)

// WithRunner installs a CellRunner consulted before local simulation on
// every sweep cache miss (see CellRunner). RunOne and Tune never use the
// runner: they are the local units of work a remote fabric itself calls.
func WithRunner(fn CellRunner) Option {
	return func(e *Explorer) error {
		if fn == nil {
			return fmt.Errorf("%w: nil CellRunner", design.ErrBadOptions)
		}
		e.runner = fn
		return nil
	}
}

// WithCacheLimit caps the result cache at n cells, evicting least
// recently used entries beyond it (see Cache.SetLimit). The default is
// unlimited — the right choice for one-shot CLI sweeps; a long-running
// daemon sets a limit to bound memory. n must be positive (use no option
// at all for unlimited).
func WithCacheLimit(n int) Option {
	return func(e *Explorer) error {
		if n <= 0 {
			return fmt.Errorf("%w: cache limit %d must be positive", design.ErrBadOptions, n)
		}
		e.cacheLimit = n
		return nil
	}
}

// Explorer orchestrates cached, journaled, cancellable sweeps. Construct
// with New, run Sweep/Tune (any number of times; the cache accumulates),
// then Close to release the journal.
type Explorer struct {
	scale        workload.Scale
	threadCounts []int
	parallelism  int
	cache        *Cache
	cacheLimit   int
	journalPath  string
	resume       bool
	progress     func(Progress)
	runner       CellRunner

	journal *journal
	// Loaded reports how many journal records a resume replayed.
	loaded int

	mu   sync.Mutex
	last Progress
}

// New builds an Explorer, validating options eagerly: a bad scale, thread
// count, parallelism or journal path fails here with an error wrapping
// design.ErrBadOptions rather than surfacing mid-sweep.
func New(opts ...Option) (*Explorer, error) {
	e := &Explorer{
		scale:        workload.Tiny,
		threadCounts: []int{1},
		parallelism:  runtime.GOMAXPROCS(0),
		cache:        NewCache(),
	}
	for _, o := range opts {
		if err := o(e); err != nil {
			return nil, err
		}
	}
	if e.cacheLimit > 0 {
		e.cache.SetLimit(e.cacheLimit)
	}
	if err := design.ValidateRun(e.scale, e.threadCounts); err != nil {
		return nil, err
	}
	switch {
	case e.parallelism < 0:
		return nil, fmt.Errorf("%w: Parallelism %d must be non-negative (0 means GOMAXPROCS)", design.ErrBadOptions, e.parallelism)
	case e.parallelism == 0:
		e.parallelism = runtime.GOMAXPROCS(0)
	}
	if e.journalPath != "" {
		j, loaded, err := openJournal(e.journalPath, e.resume, e.cache)
		if err != nil {
			return nil, err
		}
		e.journal, e.loaded = j, loaded
	}
	return e, nil
}

// Close flushes and closes the journal (a no-op without one).
func (e *Explorer) Close() error {
	if e.journal == nil {
		return nil
	}
	err := e.journal.close()
	e.journal = nil
	return err
}

// Resumed reports how many journal records were replayed into the cache
// at construction (0 without WithJournal(path, true)).
func (e *Explorer) Resumed() int { return e.loaded }

// LastProgress returns the most recent progress snapshot (the final state
// of the last sweep, once it returns).
func (e *Explorer) LastProgress() Progress {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// SweepSpec overrides an Explorer's defaults for one sweep, so a shared
// explorer (the daemon's) can serve sweeps at different scales and thread
// counts without being rebuilt. Zero fields fall back to the explorer's
// construction-time options.
type SweepSpec struct {
	// Scale overrides WithScale when non-zero.
	Scale workload.Scale
	// ThreadCounts overrides WithThreadCounts when non-empty.
	ThreadCounts []int
	// Progress overrides WithProgress when non-nil, letting concurrent
	// sweeps report progress independently.
	Progress func(Progress)
	// Fault, when non-empty, is folded into every point's configuration
	// (scenario sweeps carry one). Because the script lands in each cell's
	// Config, its digest is part of every CellKey and faulty results never
	// collide with clean ones. It is not shape-checked here (design points
	// differ in shape): the simulator validates it when it builds each
	// processor, and a mismatch is that cell's error.
	Fault *fault.Script
}

// Sweep evaluates every design point on every workload, one
// design.SweepResult row per point, cell by cell through the cache and
// journal.
// On cancellation it returns the partial results together with an error
// wrapping ctx's cause; completed cells are already journaled, so a rerun
// with the same journal and resume resumes where this run stopped and the
// merged results are identical to an uninterrupted sweep.
func (e *Explorer) Sweep(ctx context.Context, points []design.Point, apps []workload.Workload) ([]design.SweepResult, error) {
	return e.SweepWith(ctx, points, apps, SweepSpec{})
}

// SweepWith is Sweep with per-call overrides. Overridden options are
// validated eagerly (errors wrap design.ErrBadOptions).
func (e *Explorer) SweepWith(ctx context.Context, points []design.Point, apps []workload.Workload, spec SweepSpec) ([]design.SweepResult, error) {
	scale, threadCounts := e.scale, e.threadCounts
	if spec.Scale != (workload.Scale{}) {
		scale = spec.Scale
	}
	if len(spec.ThreadCounts) > 0 {
		threadCounts = spec.ThreadCounts
	}
	progress := e.progress
	if spec.Progress != nil {
		progress = spec.Progress
	}
	if err := design.ValidateRun(scale, threadCounts); err != nil {
		return nil, err
	}

	// Build instances and per-point configurations once, up front; both
	// are read-only during simulation.
	instances := make([]*workload.Instance, len(apps))
	for i, w := range apps {
		instances[i] = w.Build(scale)
	}
	configs := make([]sim.Config, len(points))
	keys := make([][]string, len(points))
	for pi, pt := range points {
		configs[pi] = sim.Baseline(pt.Arch)
		if !spec.Fault.Empty() {
			configs[pi].Fault = spec.Fault
		}
		keys[pi] = make([]string, len(apps))
		for ai, w := range apps {
			keys[pi][ai] = CellKey(configs[pi], w.Name, scale, threadCounts)
		}
	}

	total := len(points) * len(apps)
	cells := make([][]Cell, len(points))
	for pi := range cells {
		cells[pi] = make([]Cell, len(apps))
	}

	var (
		prog      = Progress{Total: total}
		start     = time.Now()
		progMu    sync.Mutex
		firstJErr error
	)
	// account folds one answered cell into the sweep's progress and
	// publishes the snapshot.
	account := func(cell Cell, src cellSource, jerr error) {
		progMu.Lock()
		defer progMu.Unlock()
		if jerr != nil && firstJErr == nil {
			firstJErr = jerr
		}
		prog.Done++
		if src == srcCache {
			prog.CacheHits++
		} else {
			prog.Simulated++
			if cell.Err != "" {
				prog.Failed++
			}
			if src == srcRemote {
				prog.Remote++
			}
			prog.SimCycles += cell.SimCycles
		}
		prog.Elapsed = time.Since(start)
		if secs := prog.Elapsed.Seconds(); secs > 0 {
			prog.CellsPerSec = float64(prog.Done) / secs
			if prog.CellsPerSec > 0 {
				prog.ETA = time.Duration(float64(prog.Total-prog.Done) / prog.CellsPerSec * float64(time.Second))
			}
		}
		snap := prog
		e.mu.Lock()
		e.last = snap
		e.mu.Unlock()
		// The callback runs under progMu so invocations are serialized
		// and in Done order; it must not call back into Sweep.
		if progress != nil {
			progress(snap)
		}
	}

	// runCell is the unit of work: one evalCell on the instance built
	// above, the runner consulted on a miss.
	runCell := func(pi, ai int) {
		cell, src, jerr := e.evalCell(ctx, keys[pi][ai], configs[pi], apps[ai], instances[ai], scale, threadCounts, e.runner)
		if src == srcNone {
			return // cancelled: drain the queue without simulating
		}
		cells[pi][ai] = cell
		account(cell, src, jerr)
	}

	type sweepJob struct{ pi, ai int }
	jobs := make(chan sweepJob)
	var wg sync.WaitGroup
	for w := 0; w < e.parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				runCell(job.pi, job.ai)
			}
		}()
	}
dispatch:
	for pi := range points {
		for ai := range apps {
			select {
			case <-ctx.Done():
				break dispatch
			case jobs <- sweepJob{pi, ai}:
			}
		}
	}
	close(jobs)
	wg.Wait()

	results := assemble(points, apps, cells, ctx.Err())
	if err := ctx.Err(); err != nil {
		progMu.Lock()
		done := prog.Done
		progMu.Unlock()
		return results, fmt.Errorf("explore: sweep cancelled after %d/%d cells: %w", done, total, err)
	}
	if firstJErr != nil {
		return results, firstJErr
	}
	return results, nil
}

// cellSource says where evalCell's answer came from.
type cellSource int

const (
	srcNone   cellSource = iota // cancelled: no answer, nothing cached or journaled
	srcCache                    // already cached (or journaled and replayed)
	srcLocal                    // simulated here
	srcRemote                   // simulated by the CellRunner
)

// evalCell is the one way a cell is produced: cache lookup, optional remote
// execution, the local best-thread-count search, write-through. RunOne
// passes a nil inst so a hit never builds the workload; Sweep passes the
// instance it built once for the whole sweep. runner is nil outside sweeps.
// A returned error is the context's on srcNone and a failed journal
// append otherwise (the cell is still valid and cached).
func (e *Explorer) evalCell(ctx context.Context, key string, cfg sim.Config, w workload.Workload, inst *workload.Instance,
	sc workload.Scale, threadCounts []int, runner CellRunner) (Cell, cellSource, error) {
	if cell, ok := e.cache.Cell(key); ok {
		return cell, srcCache, nil
	}
	if err := ctx.Err(); err != nil {
		return Cell{}, srcNone, err
	}
	if runner != nil {
		// Remote execution first; any failure (no workers, network,
		// retries exhausted) falls back to simulating locally, so a
		// degraded fabric never loses cells.
		rc, rerr := runner(ctx, key, cfg, w.Name, sc, threadCounts)
		if rerr == nil && rc.Key == key {
			return rc, srcRemote, e.commit(rc)
		}
		if err := ctx.Err(); err != nil {
			return Cell{}, srcNone, err
		}
	}
	if inst == nil {
		inst = w.Build(sc)
	}
	br, err := design.BestThreadsContext(ctx, cfg, inst, threadCounts)
	if err != nil && ctx.Err() != nil {
		// Cancelled mid-cell: do not cache or journal a non-deterministic
		// partial outcome.
		return Cell{}, srcNone, err
	}
	cell := newCell(key, w.Name, cfg, sc)
	if err != nil {
		cell.Err = err.Error()
	} else {
		cell.AIPC, cell.Threads = br.AIPC, br.Threads
		cell.Cycles, cell.SimCycles = br.Cycles, br.SimCycles
		cell.Traffic = br.Traffic
	}
	return cell, srcLocal, e.commit(cell)
}

// commit writes a completed cell through to the cache and, when there is
// one, the journal.
func (e *Explorer) commit(cell Cell) error {
	e.cache.PutCell(cell)
	if e.journal != nil {
		return e.journal.append(cellRecord(cell))
	}
	return nil
}

// newCell stamps a fresh cell with its identity and provenance: the
// fields every outcome (success or deterministic failure) carries.
func newCell(key, app string, cfg sim.Config, sc workload.Scale) Cell {
	cell := Cell{
		Key: key, App: app, Arch: cfg.Arch.String(),
		ScaleIters: sc.Iters, ScaleFootprint: sc.Footprint, K: cfg.K,
	}
	if !cfg.Fault.Empty() {
		cell.FaultDigest = cfg.Fault.Digest()
	}
	return cell
}

// errIncomplete marks a cell the sweep never reached (cancellation).
var errIncomplete = errors.New("explore: cell not evaluated")

// assemble folds per-cell outcomes back into design.SweepResult rows, one
// per point, in input order. A point with any failed or missing cell gets
// Err set (joining every per-app failure) and no Mean, so failed points
// drop out of design.Frontier.
func assemble(points []design.Point, apps []workload.Workload, cells [][]Cell, cancelErr error) []design.SweepResult {
	results := make([]design.SweepResult, len(points))
	for pi, pt := range points {
		res := design.SweepResult{
			Point:   pt,
			AIPC:    make(map[string]float64, len(apps)),
			Threads: make(map[string]int, len(apps)),
		}
		var errs []error
		sum := 0.0
		for ai, app := range apps {
			cell := cells[pi][ai]
			switch {
			case cell.Key == "":
				err := cancelErr
				if err == nil {
					err = errIncomplete
				}
				errs = append(errs, fmt.Errorf("%s on %s: %w", app.Name, pt.Arch, err))
			case cell.Err != "":
				errs = append(errs, fmt.Errorf("%s on %s: %s", app.Name, pt.Arch, cell.Err))
			default:
				res.AIPC[app.Name] = cell.AIPC
				res.Threads[app.Name] = cell.Threads
				sum += cell.AIPC
			}
		}
		if len(errs) > 0 {
			res.Err = errors.Join(errs...)
		} else {
			res.Mean = sum / float64(len(apps))
		}
		results[pi] = res
	}
	return results
}

// RunOne evaluates a single (configuration, workload, scale, thread
// counts) cell through the cache and journal: a previously cached or
// journaled cell is returned without simulating (cached true), otherwise
// the best-thread-count search runs under ctx and the outcome — including
// a deterministic failure, recorded in Cell.Err — is cached and journaled
// exactly as Sweep would. It is the daemon's unit of work for POST
// /v1/runs: because the key is content-addressed, concurrent or repeated
// identical requests cost at most one simulation.
//
// The error return is reserved for non-deterministic outcomes that must
// not be cached: cancellation and malformed arguments.
func (e *Explorer) RunOne(ctx context.Context, cfg sim.Config, w workload.Workload, sc workload.Scale, threadCounts []int) (Cell, bool, error) {
	if err := design.ValidateRun(sc, threadCounts); err != nil {
		return Cell{}, false, err
	}
	cell, src, err := e.evalCell(ctx, CellKey(cfg, w.Name, sc, threadCounts), cfg, w, nil, sc, threadCounts, nil)
	return cell, src == srcCache, err
}

// Cache returns the explorer's result cache, for
// callers that report its statistics or pre-warm it.
func (e *Explorer) Cache() *Cache { return e.cache }

// Tune runs the Table 4 procedure for one workload at scale sc with every
// measurement a cell: design.Tune picks k_opt and u_opt, and each
// single-thread AIPC it asks for is RunOne's — cached, journaled and
// resumable like any sweep cell, and shared with every other tuning, sweep
// or /v1/runs request that measures the same configuration. cached reports
// that every step was a cache hit, i.e. the tuning simulated nothing. A
// step that fails deterministically is a cached cell too, so the same
// error comes back from the cache on the next call; a degenerate scale
// fails the first step with an error wrapping design.ErrBadOptions.
func (e *Explorer) Tune(ctx context.Context, w workload.Workload, sc workload.Scale) (design.Tuning, bool, error) {
	cached := true
	tn, err := design.Tune(w.Name, func(cfg sim.Config) (float64, error) {
		cell, hit, err := e.RunOne(ctx, cfg, w, sc, []int{1})
		if err != nil {
			return 0, err
		}
		cached = cached && hit
		if cell.Err != "" {
			return 0, errors.New(cell.Err)
		}
		return cell.AIPC, nil
	})
	return tn, cached && err == nil, err
}
