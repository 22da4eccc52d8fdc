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
//   - twin reuse: an explorer does not simulate a run whose result it
//     already knows exactly (below).
//
// Every simulation is deterministic, which is what makes the cache sound:
// a cell's key covers everything that can influence its result.
//
// # Twin reuse
//
// Twins are cells of one workload and scale whose configurations are
// equal in every field but Arch.Virt, Arch.Match, Arch.L1KB and
// Arch.L2MB. A run an Explorer simulated lasts as long as its cell, or a
// sweep that holds it (below): it is kept in the Cache beside the cell as
// a base (in memory only, never journaled, not in Cells, evicted with the
// cell), indexed by the twin key, and Sweep, RunOne and so Tune all look
// twins up there. For each thread count n, a cell copies a base's run at
// n instead of simulating when V and M agree or the workload's placement
// at n is sim.Binding.Inert on both configurations (decided before any
// cycle runs), and cache.Footprint.ExactOn passes the run from the base's
// caches to the cell's (decided from the run's cache footprint). Each
// method's doc comment states its rule and why it holds. Only the rest is
// simulated. A cell some of whose counts were simulated becomes a base; a
// cell copied whole, or replayed from the journal, carries no runs of its
// own and is not one.
//
// A sweep gives each twin chain (below) its own list of bases: those
// stored under the chain's twin key when the sweep started, then the base
// each member leaves, in chain order. A cell copies only from its chain's
// list, so what a sweep copies, and Progress.Sims, depend neither on the
// parallelism nor on what WithCacheLimit evicts meanwhile. One dependence
// remains under a limit: a cell cached when the sweep started may be
// evicted before its turn and then be simulated.
//
// A twin chain is the cells of one workload whose configurations are
// equal in every field but Arch.L1KB and Arch.L2MB, and but Arch.Virt and
// Arch.Match too for the cells where V and M decide nothing: where the
// workload's placement at every thread count the cell runs is
// sim.Binding.Inert on the cell's configuration (twinChains). A
// cell whose V and M do decide something stays in a chain of its own V
// and M, so no cell waits for a sibling it could not copy from. Members
// come in ascending (L1, L2) order, and a sweep runs each chain in that
// order: a cell waits for its chain's previous cell, and so for every
// earlier member. Ready cells go to the workers in point-major order, so
// where no cell waits the schedule is that of a sweep without reuse.
// Every Viable L1 is 8, 16 or 32 KB, so each member's L1 is a multiple of
// every earlier member's, and the chain waits for no cell a copy could
// not come from; with other L1 sizes it may wait for more.
//
// A copied cell is byte-identical to a simulated one, so keys, journal
// records and results do not change; only Progress.Reused and
// Progress.Sims tell them apart. TestSweepReuseMatchesDirect and
// TestReuseAcrossCallsIsExact check copied cells against direct runs.
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
	"wavescalar/internal/place"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// Progress is a snapshot of a running sweep, delivered to the WithProgress
// callback after every completed cell and retrievable afterwards with
// LastProgress. RunOne reports its one cell the same way, without the
// timing fields.
type Progress struct {
	// Done cells out of Total (a cell is one design point × workload).
	Done, Total int
	// CacheHits were answered from the cache/journal without simulating;
	// Simulated counts every other cell, the ones this sweep produced;
	// Failed of those ended in a deterministic error (and were cached as
	// such). Reused counts the produced cells copied from their twins
	// without a simulation (see the package doc). Batched is always 0; the
	// field stays only because bench/ledger/sweepwl.go reads it.
	CacheHits, Simulated, Failed, Reused, Batched int
	// SimCycles totals the machine cycles of the cells Simulated counts (a
	// reused cell's are its twin's).
	SimCycles uint64
	// Sims counts the simulations the cells Simulated counts ran
	// (design.BestRun.Sims): a thread count copied from a twin is not one.
	Sims int
	// Dropped totals the thread counts the cells Simulated counts dropped
	// from their best-thread search because the run failed
	// (design.BestRun.Dropped). It is not part of a cell, so a cached
	// cell's are not known.
	Dropped design.Drops
	// Elapsed wall time, cells-per-second throughput over it, and the
	// projected time to finish the remaining cells at that rate.
	Elapsed     time.Duration
	CellsPerSec float64
	ETA         time.Duration
}

// add counts one answered cell: br is its search's outcome and src where
// the answer came from.
func (p *Progress) add(cell Cell, br design.BestRun, src cellSource) {
	p.Done++
	if src == srcCache {
		p.CacheHits++
		return
	}
	p.Simulated++
	if cell.Err != "" {
		p.Failed++
	}
	if src == srcReused {
		p.Reused++
	}
	p.SimCycles += cell.SimCycles
	p.Sims += br.Sims
	p.Dropped = p.Dropped.Add(br.Dropped)
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
	account := func(cell Cell, br design.BestRun, src cellSource, jerr error) {
		progMu.Lock()
		defer progMu.Unlock()
		if jerr != nil && firstJErr == nil {
			firstJErr = jerr
		}
		prog.add(cell, br, src)
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

	// Every cell is one task. A cell waits for its twin chain's previous
	// cell, of the same workload. Ready cells go to the first free worker
	// in point-major order (cellQueue). A chain owns its list of bases for
	// the sweep: those the cache held under its twin key when the sweep
	// started, cut to their length so an append copies them, then the base
	// each member leaves. A member reads the list after cellQueue hands it
	// on, so it sees every earlier member's base, and what it copies
	// depends neither on the parallelism nor on what the cache evicts
	// meanwhile (see the package doc).
	binds := newBindings(instances, threadCounts)
	chains := twinChains(configs, len(apps), func(pi, ai int) bool { return binds.inert(configs[pi], ai) })
	chainOf := make([]int, total)
	succ := make([]int, total)
	bases := make([][]*base, len(chains))
	for ch, chain := range chains {
		pi, ai := chain[0]/len(apps), chain[0]%len(apps)
		pre := e.cache.twinBases(twinKeyOf(configs[pi], apps[ai].Name, scale))
		bases[ch] = pre[:len(pre):len(pre)]
		for i, c := range chain {
			chainOf[c], succ[c] = ch, -1
			if i+1 < len(chain) {
				succ[c] = chain[i+1]
			}
		}
	}
	runCell := func(c int) {
		pi, ai, ch := c/len(apps), c%len(apps), chainOf[c]
		bind := func(n int) sim.Binding { return binds.at(configs[pi], ai, n) }
		cell, br, b, src, jerr := e.evalCell(ctx, keys[pi][ai], configs[pi], apps[ai], instances[ai], scale, threadCounts, bases[ch], bind)
		if src == srcNone {
			return // cancelled: nothing cached or journaled
		}
		if b != nil {
			bases[ch] = append(bases[ch], b)
		}
		cells[pi][ai] = cell
		account(cell, br, src, jerr)
	}

	q := newCellQueue(succ)
	var wg sync.WaitGroup
	for w := 0; w < e.parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, ok := q.next(ctx)
				if !ok {
					return
				}
				runCell(c)
				q.done(c)
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

// cellQueue hands a sweep's cells to its workers. Each cell waits for at
// most one other, the one before it in its twin chain; ready cells leave
// in point-major order: where no cell waits, the order of a sweep without
// reuse.
type cellQueue struct {
	mu    sync.Mutex
	cond  sync.Cond
	succ  []int // per cell: the cell that waits for it, or -1
	ready readyCells
	left  int // cells not yet done
}

func newCellQueue(succ []int) *cellQueue {
	q := &cellQueue{succ: succ, left: len(succ)}
	q.cond.L = &q.mu
	waits := make([]bool, len(succ))
	for _, s := range succ {
		if s >= 0 {
			waits[s] = true
		}
	}
	for c := range succ {
		if !waits[c] {
			q.ready = append(q.ready, c)
		}
	}
	heap.Init(&q.ready)
	return q
}

// next blocks until a cell is ready and returns it; ok is false once every
// cell is done or ctx has ended.
func (q *cellQueue) next(ctx context.Context) (c int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ready) == 0 && q.left > 0 && ctx.Err() == nil {
		q.cond.Wait()
	}
	if len(q.ready) == 0 || ctx.Err() != nil {
		return 0, false
	}
	return heap.Pop(&q.ready).(int), true
}

// done marks a cell finished (or abandoned on cancellation) and releases
// the cell that waits for it.
func (q *cellQueue) done(c int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.left--
	if s := q.succ[c]; s >= 0 {
		heap.Push(&q.ready, s)
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

// twinChains groups a sweep's cells, numbered point-major (pi·apps + ai),
// into twin chains: the cells of one workload whose configurations are
// equal in every field but Arch.L1KB and Arch.L2MB, and but Arch.Virt and
// Arch.Match too where inert(pi, ai) says V and M decide nothing for the
// cell. Chains come in the order of their first cell, members in
// ascending (L1, L2) order, ties in point order.
func twinChains(configs []sim.Config, apps int, inert func(pi, ai int) bool) [][]int {
	type chainKey struct {
		cfg sim.Config
		app int
	}
	index := make(map[chainKey]int)
	var chains [][]int
	for pi, cfg := range configs {
		cfg.Arch.L1KB, cfg.Arch.L2MB = 0, 0
		for ai := 0; ai < apps; ai++ {
			k := chainKey{cfg, ai}
			if inert(pi, ai) {
				k.cfg.Arch.Virt, k.cfg.Arch.Match = 0, 0
			}
			ci, ok := index[k]
			if !ok {
				ci = len(chains)
				index[k] = ci
				chains = append(chains, nil)
			}
			chains[ci] = append(chains[ci], pi*apps+ai)
		}
	}
	for _, chain := range chains {
		sort.SliceStable(chain, func(i, j int) bool {
			a, b := configs[chain[i]/apps].Arch, configs[chain[j]/apps].Arch
			if a.L1KB != b.L1KB {
				return a.L1KB < b.L1KB
			}
			return a.L2MB < b.L2MB
		})
	}
	return chains
}

// bindings places a sweep's workloads for the V/M rule (sim.Binding), once
// per workload, machine shape and thread count, for the sweep's workers
// to share.
type bindings struct {
	insts  []*workload.Instance
	counts []int
	mu     sync.Mutex
	m      map[bindKey]sim.Binding
}

// bindKey is what sim.Bind reads: the workload, the thread count, and the
// configuration's clusters, domains, PEs and placement policy.
type bindKey struct {
	app, threads           int
	clusters, domains, pes int
	policy                 place.Policy
}

func newBindings(insts []*workload.Instance, counts []int) *bindings {
	return &bindings{insts: insts, counts: counts, m: make(map[bindKey]sim.Binding)}
}

// at returns app's binding at n threads on cfg's machine.
func (b *bindings) at(cfg sim.Config, app, n int) sim.Binding {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := bindKey{app, n, cfg.Arch.Clusters, cfg.Arch.Domains, cfg.Arch.PEs, cfg.Placement}
	bind, ok := b.m[k]
	if !ok {
		bind, _ = sim.Bind(cfg, b.insts[app].Prog, n) // a failed placement certifies nothing
		b.m[k] = bind
	}
	return bind
}

// inert reports whether V and M decide nothing for the cell of app on cfg:
// whether the run is sim.Binding.Inert at every thread count the cell
// runs, and it runs at least one.
func (b *bindings) inert(cfg sim.Config, app int) bool {
	some := false
	for _, n := range b.counts {
		if n > b.insts[app].MaxThreads {
			continue
		}
		if !b.at(cfg, app, n).Inert(cfg) {
			return false
		}
		some = true
	}
	return some
}

// cellSource says where evalCell's answer came from.
type cellSource int

const (
	srcNone   cellSource = iota // cancelled: no answer, nothing cached or journaled
	srcCache                    // already cached (or journaled and replayed)
	srcLocal                    // simulated here (some thread counts may be reused)
	srcReused                   // every thread count copied from a twin
)

// evalCell is the one way a cell is produced: cache lookup, the
// best-thread-count search, write-through. With the cell it returns the
// search's outcome (empty on a hit), whose runs and drops are not part of
// the cell. RunOne passes a nil inst so a hit never builds the workload;
// Sweep passes the instance it built once for the whole sweep. For each
// thread count the search copies a run of one of bases that is exact on
// cfg (twinReuse), with bind(n) the workload's binding at n threads on
// cfg's machine; RunOne passes a nil bind, and evalCell places the cell's
// own workload. A cell copied at every thread count the workload allows
// is srcReused; otherwise the search simulates the rest, and its completed
// runs are stored beside the cell as its base, which evalCell returns. A
// returned error is the context's on srcNone and a failed journal append
// otherwise (the cell is still valid and cached).
func (e *Explorer) evalCell(ctx context.Context, key string, cfg sim.Config, w workload.Workload, inst *workload.Instance,
	sc workload.Scale, threadCounts []int, bases []*base, bind func(n int) sim.Binding) (Cell, design.BestRun, *base, cellSource, error) {
	if cell, ok := e.cache.Cell(key); ok {
		return cell, design.BestRun{}, nil, srcCache, nil
	}
	if err := ctx.Err(); err != nil {
		return Cell{}, design.BestRun{}, nil, srcNone, err
	}
	if inst == nil {
		inst = w.Build(sc)
	}
	// The twin rules compare configurations; a trace never changes results.
	twin := cfg
	twin.Trace = nil
	if bind == nil {
		binds := newBindings([]*workload.Instance{inst}, threadCounts)
		bind = func(n int) sim.Binding { return binds.at(twin, 0, n) }
	}
	br, err := design.BestThreadsReusing(ctx, cfg, inst, threadCounts, twinReuse(twin, bases, bind))
	if err != nil && ctx.Err() != nil {
		// Cancelled mid-cell: do not cache or journal a non-deterministic
		// partial outcome.
		return Cell{}, design.BestRun{}, nil, srcNone, err
	}
	cell := newCell(key, w.Name, cfg, sc)
	if err != nil {
		cell.Err = err.Error()
	} else {
		cell.AIPC, cell.Threads = br.AIPC, br.Threads
		cell.Cycles, cell.SimCycles = br.Cycles, br.SimCycles
		cell.Traffic = br.Traffic
	}
	src := srcLocal
	var b *base
	switch {
	case br.Sims == 0 && br.Dropped.Total() == 0 && len(br.Runs) > 0:
		src = srcReused // nothing simulated or dropped: every count was copied
	case len(br.Runs) > 0:
		b = &base{twin: twinKeyOf(twin, w.Name, sc), cfg: twin, runs: br.Runs}
	}
	return cell, br, b, src, e.commit(cell, b)
}

// twinReuse returns what design.BestThreadsReusing asks for a cell on cfg:
// for each thread count, the run of the first of bases that is exact on
// cfg (base.runOn). It is nil when there are no bases.
func twinReuse(cfg sim.Config, bases []*base, bind func(n int) sim.Binding) func(int) (design.ThreadRun, bool) {
	if len(bases) == 0 {
		return nil
	}
	return func(n int) (design.ThreadRun, bool) {
		for _, b := range bases {
			if r, ok := b.runOn(cfg, n, bind); ok {
				return r, true
			}
		}
		return design.ThreadRun{}, false
	}
}

// commit writes a completed cell, with its base if it has one, through to
// the cache and, when there is one, the cell to the journal.
func (e *Explorer) commit(cell Cell, b *base) error {
	e.cache.put(cell, b)
	if e.journal != nil {
		return e.journal.append(cellRecord(cell))
	}
	return nil
}

// newCell stamps a fresh cell with its identity and provenance: the
// fields every outcome (success or deterministic failure) carries.
func newCell(key, app string, cfg sim.Config, sc workload.Scale) Cell {
	return Cell{
		Key: key, App: app, Arch: cfg.Arch.String(),
		ScaleIters: sc.Iters, ScaleFootprint: sc.Footprint, K: cfg.K,
	}
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
// journaled cell is returned without simulating, otherwise the
// best-thread-count search runs under ctx, copying what runs it can from
// the bases stored beside earlier cells (see the package doc), and the
// outcome — including a deterministic failure, recorded in Cell.Err — is
// cached and journaled exactly as Sweep would. The Progress counts the one
// cell as Sweep's would (CacheHits, Simulated, Reused, Sims, ...), without
// the timing fields. It is the daemon's unit of work for POST /v1/runs:
// because the key is content-addressed, concurrent or repeated identical
// requests cost at most one simulation.
//
// The error return is reserved for non-deterministic outcomes that must
// not be cached: cancellation and malformed arguments.
func (e *Explorer) RunOne(ctx context.Context, cfg sim.Config, w workload.Workload, sc workload.Scale, threadCounts []int) (Cell, Progress, error) {
	p := Progress{Total: 1}
	if err := design.ValidateRun(sc, threadCounts); err != nil {
		return Cell{}, p, err
	}
	bases := e.cache.twinBases(twinKeyOf(cfg, w.Name, sc))
	cell, br, _, src, err := e.evalCell(ctx, CellKey(cfg, w.Name, sc, threadCounts), cfg, w, nil, sc, threadCounts, bases, nil)
	if src != srcNone {
		p.add(cell, br, src)
	}
	return cell, p, err
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
		cell, p, err := e.RunOne(ctx, cfg, w, sc, []int{1})
		if err != nil {
			return 0, err
		}
		cached = cached && p.CacheHits == 1
		if cell.Err != "" {
			return 0, errors.New(cell.Err)
		}
		return cell.AIPC, nil
	})
	return tn, cached && err == nil, err
}
