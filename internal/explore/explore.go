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
//     cycles per second);
//   - cache-family reuse: a sweep does not simulate a run whose result it
//     already knows exactly (below).
//
// Every simulation is deterministic, which is what makes the cache sound:
// a cell's key covers everything that can influence its result.
//
// # Cache-family reuse
//
// The L1 and L2 sizes reach the simulator only as the L1 set count and the
// L2 capacity, and the cache reads either only when a fill evicts. A cell
// on a point P therefore waits for the cells of the same workload on every
// point P is a cache twin of (cacheTwin): the same configuration but for
// Arch.L1KB and Arch.L2MB, with an L1 whose size divides P's, an L2 no
// larger than P's, and an L2 exactly when P has one. For each thread
// count it copies a run of one of those cells that this sweep simulated,
// provided that run evicted nothing (design.ThreadRun.Evicted). Only the
// rest is simulated. Ready cells go to the workers in point-major order,
// so where no cell waits the schedule is that of a sweep without reuse.
// A sweep with a CellRunner (WithRunner) makes no cell wait: remote cells
// are never bases, so its cells go out one by one.
//
// The certificate is the eviction count of internal/cache, kept outside
// its Stats so no digest moves. It counts every fill that displaced a
// valid line, in the L1 or the L2, and every L1 fill of a line the L1
// already held (a write upgrade of a shared copy leaves two ways with one
// tag, and which a lookup finds first depends on the set's layout). A run
// with none makes the identical sequence of events on every twin;
// FuzzCacheFamily checks that in internal/cache, and
// TestSweepReuseMatchesDirect checks reused cells against direct runs.
// Cache hits and CellRunner cells carry no per-count runs and never serve
// as bases. A copied cell is byte-identical to a simulated one, so keys,
// journal records and results do not change; only Progress.Reused tells
// them apart.
package explore

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
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
	// Simulated counts every other cell, the ones this sweep produced;
	// Failed of those ended in a deterministic error (and were cached as
	// such). Remote counts the produced cells a CellRunner executed on
	// another node (WithRunner), and Reused those copied from a cache twin
	// without a simulation (see the package doc). Batched is always 0; the
	// field stays only because bench/ledger/sweepwl.go reads it.
	CacheHits, Simulated, Failed, Remote, Reused, Batched int
	// SimCycles totals the machine cycles of the cells Simulated counts (a
	// reused cell's are its twin's).
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
			switch src {
			case srcRemote:
				prog.Remote++
			case srcReused:
				prog.Reused++
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

	// Every cell is one task. A cell waits for the cells of the same
	// workload on the points it is a cache twin of (twinGraph): those may
	// offer it runs to copy. Ready cells go to the first free worker in
	// point-major order (cellQueue).
	// Cells this sweep simulated (in full or in part) become bases for
	// their successors; cache hits and remote cells do not, as they carry
	// no per-count runs. For that reason a sweep with a CellRunner makes
	// no cell wait: its cells go to the fabric as they come, and one that
	// falls back to a local simulation copies nothing.
	var families [][]int
	if e.runner == nil {
		families = cacheFamilies(configs)
	}
	g := twinGraph(configs, families)
	bases := make([][][]design.ThreadRun, len(points))
	for pi := range bases {
		if len(g.succs[pi]) > 0 {
			bases[pi] = make([][]design.ThreadRun, len(apps))
		}
	}
	runCell := func(pi, ai int) {
		var reuse func(int) (design.ThreadRun, bool)
		if len(g.preds[pi]) > 0 {
			reuse = func(n int) (design.ThreadRun, bool) {
				for _, bi := range g.preds[pi] {
					for _, r := range bases[bi][ai] {
						if r.Threads == n && !r.Evicted {
							return r, true
						}
					}
				}
				return design.ThreadRun{}, false
			}
		}
		cell, runs, src, jerr := e.evalCell(ctx, keys[pi][ai], configs[pi], apps[ai], instances[ai], scale, threadCounts, e.runner, reuse)
		if src == srcNone {
			return // cancelled: nothing cached or journaled
		}
		if src == srcLocal && bases[pi] != nil {
			bases[pi][ai] = runs
		}
		cells[pi][ai] = cell
		account(cell, src, jerr)
	}

	q := newCellQueue(g, len(apps))
	var wg sync.WaitGroup
	for w := 0; w < e.parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pi, ai, ok := q.next(ctx)
				if !ok {
					return
				}
				runCell(pi, ai)
				q.done(pi, ai)
			}
		}()
	}
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

// twinDAG says which cells of a sweep wait for which: preds[pi] lists the
// points before pi in its cache family's ascending (L1, L2) order that pi
// is a cache twin of, and succs[pi] the points that list pi.
type twinDAG struct {
	preds, succs [][]int
}

// twinGraph builds the twinDAG of configs over the given families (nil:
// no cell waits for another).
func twinGraph(configs []sim.Config, families [][]int) twinDAG {
	g := twinDAG{preds: make([][]int, len(configs)), succs: make([][]int, len(configs))}
	for _, family := range families {
		for i, pi := range family {
			for _, bi := range family[:i] {
				if cacheTwin(configs[bi], configs[pi]) {
					g.preds[pi] = append(g.preds[pi], bi)
					g.succs[bi] = append(g.succs[bi], pi)
				}
			}
		}
	}
	return g
}

// cellQueue hands a sweep's cells to its workers. A cell is ready once
// every cell it waits for is done, and ready cells leave in point-major
// order: where no cell waits, the order of a sweep without reuse.
type cellQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	g       twinDAG
	apps    int
	waiting [][]int // per point and workload: predecessors not yet done
	ready   readyCells
	left    int // cells not yet done
}

func newCellQueue(g twinDAG, apps int) *cellQueue {
	q := &cellQueue{g: g, apps: apps, waiting: make([][]int, len(g.preds)), left: len(g.preds) * apps}
	q.cond.L = &q.mu
	for pi, preds := range g.preds {
		if len(preds) > 0 {
			q.waiting[pi] = make([]int, apps)
			for ai := range q.waiting[pi] {
				q.waiting[pi][ai] = len(preds)
			}
			continue
		}
		for ai := 0; ai < apps; ai++ {
			q.ready = append(q.ready, pi*apps+ai)
		}
	}
	heap.Init(&q.ready)
	return q
}

// next blocks until a cell is ready and returns it; ok is false once every
// cell is done or ctx has ended.
func (q *cellQueue) next(ctx context.Context) (pi, ai int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ready) == 0 && q.left > 0 && ctx.Err() == nil {
		q.cond.Wait()
	}
	if len(q.ready) == 0 || ctx.Err() != nil {
		return 0, 0, false
	}
	c := heap.Pop(&q.ready).(int)
	return c / q.apps, c % q.apps, true
}

// done marks a cell finished (or abandoned on cancellation) and releases
// the cells that no longer wait for anything.
func (q *cellQueue) done(pi, ai int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.left--
	for _, si := range q.g.succs[pi] {
		if q.waiting[si][ai]--; q.waiting[si][ai] == 0 {
			heap.Push(&q.ready, si*q.apps+ai)
		}
	}
	q.cond.Broadcast()
}

// readyCells is a min-heap of point-major cell indices.
type readyCells []int

func (h readyCells) Len() int           { return len(h) }
func (h readyCells) Less(i, j int) bool { return h[i] < h[j] }
func (h readyCells) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *readyCells) Push(x any)        { *h = append(*h, x.(int)) }
func (h *readyCells) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// cacheFamilies groups point indices into cache families: configurations
// equal in every field but Arch.L1KB and Arch.L2MB, and either all with an
// L2 or all without (no run is ever copied across that line, see
// cacheTwin). Families come in the order of their first point, members in
// ascending (L1, L2) order, ties in input order.
func cacheFamilies(configs []sim.Config) [][]int {
	index := make(map[sim.Config]int)
	var families [][]int
	for pi, cfg := range configs {
		cfg.Arch.L1KB, cfg.Arch.L2MB = 0, min(cfg.Arch.L2MB, 1)
		fi, ok := index[cfg]
		if !ok {
			fi = len(families)
			index[cfg] = fi
			families = append(families, nil)
		}
		families[fi] = append(families[fi], pi)
	}
	for _, f := range families {
		sort.SliceStable(f, func(i, j int) bool {
			a, b := configs[f[i]].Arch, configs[f[j]].Arch
			if a.L1KB != b.L1KB {
				return a.L1KB < b.L1KB
			}
			return a.L2MB < b.L2MB
		})
	}
	return families
}

// cacheTwin reports whether every eviction-free run on base is exact on
// twin. The two configurations must be equal in every field but the L1
// and L2 sizes; twin's L1 must be a whole multiple of base's, its L2 at
// least as large, and both must have an L2 or neither. The simulator
// reads the two sizes only as the L1 set count and the L2 capacity, and
// only when a fill evicts; an L1 with k times base's sets splits each of
// base's sets among k of its own, so it never needs to evict either
// (FuzzCacheFamily in internal/cache checks this).
func cacheTwin(base, twin sim.Config) bool {
	b, t := base.Arch, twin.Arch
	if b.L1KB <= 0 || t.L1KB%b.L1KB != 0 || t.L2MB < b.L2MB || (b.L2MB == 0) != (t.L2MB == 0) {
		return false
	}
	base.Arch.L1KB, base.Arch.L2MB = 0, 0
	twin.Arch.L1KB, twin.Arch.L2MB = 0, 0
	return base == twin
}

// cellSource says where evalCell's answer came from.
type cellSource int

const (
	srcNone   cellSource = iota // cancelled: no answer, nothing cached or journaled
	srcCache                    // already cached (or journaled and replayed)
	srcLocal                    // simulated here (some thread counts may be reused)
	srcRemote                   // simulated by the CellRunner
	srcReused                   // every thread count copied from a cache twin
)

// evalCell is the one way a cell is produced: cache lookup, optional remote
// execution, the local best-thread-count search, write-through. RunOne
// passes a nil inst so a hit never builds the workload; Sweep passes the
// instance it built once for the whole sweep. runner and reuse are nil
// outside sweeps; reuse offers runs of the cell's cache twins (see
// design.BestThreadsReusing). A cell reuse covers at every thread count
// the workload allows is copied without consulting the runner (srcReused);
// otherwise the runs the local search completed are returned with the
// cell. A returned error is the context's on srcNone and a failed journal
// append otherwise (the cell is still valid and cached).
func (e *Explorer) evalCell(ctx context.Context, key string, cfg sim.Config, w workload.Workload, inst *workload.Instance,
	sc workload.Scale, threadCounts []int, runner CellRunner, reuse func(int) (design.ThreadRun, bool)) (Cell, []design.ThreadRun, cellSource, error) {
	if cell, ok := e.cache.Cell(key); ok {
		return cell, nil, srcCache, nil
	}
	if err := ctx.Err(); err != nil {
		return Cell{}, nil, srcNone, err
	}
	src := srcLocal
	if reuse != nil && covered(reuse, inst.MaxThreads, threadCounts) {
		src = srcReused
	} else if runner != nil {
		// Remote execution first; any failure (no workers, network,
		// retries exhausted) falls back to simulating locally, so a
		// degraded fabric never loses cells.
		rc, rerr := runner(ctx, key, cfg, w.Name, sc, threadCounts)
		if rerr == nil && rc.Key == key {
			return rc, nil, srcRemote, e.commit(rc)
		}
		if err := ctx.Err(); err != nil {
			return Cell{}, nil, srcNone, err
		}
	}
	if inst == nil {
		inst = w.Build(sc)
	}
	br, err := design.BestThreadsReusing(ctx, cfg, inst, threadCounts, reuse)
	if err != nil && ctx.Err() != nil {
		// Cancelled mid-cell: do not cache or journal a non-deterministic
		// partial outcome.
		return Cell{}, nil, srcNone, err
	}
	cell := newCell(key, w.Name, cfg, sc)
	if err != nil {
		cell.Err = err.Error()
	} else {
		cell.AIPC, cell.Threads = br.AIPC, br.Threads
		cell.Cycles, cell.SimCycles = br.Cycles, br.SimCycles
		cell.Traffic = br.Traffic
	}
	return cell, br.Runs, src, e.commit(cell)
}

// covered reports whether reuse has a run for every thread count up to
// limit, and for at least one.
func covered(reuse func(int) (design.ThreadRun, bool), limit int, threadCounts []int) bool {
	some := false
	for _, n := range threadCounts {
		if n > limit {
			continue
		}
		if _, ok := reuse(n); !ok {
			return false
		}
		some = true
	}
	return some
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
	cell, _, src, err := e.evalCell(ctx, CellKey(cfg, w.Name, sc, threadCounts), cfg, w, nil, sc, threadCounts, nil, nil)
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
