package design

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// ErrBadOptions is the sentinel wrapped by the validating entry points
// (ValidateRun and the explore engine) when their options are malformed.
// Match it with errors.Is.
var ErrBadOptions = errors.New("design: bad options")

// RunOnceContext executes a workload instance on a configuration with the
// given thread count and returns the run statistics. The simulation aborts
// within a few thousand cycles of ctx ending.
func RunOnceContext(ctx context.Context, cfg sim.Config, inst *workload.Instance, threads int) (*sim.Stats, error) {
	st, _, err := runOnce(ctx, cfg, inst, threads)
	return st, err
}

// runOnce is RunOnceContext that also reports the run's cache evictions
// (sim.Processor.CacheEvictions).
func runOnce(ctx context.Context, cfg sim.Config, inst *workload.Instance, threads int) (*sim.Stats, uint64, error) {
	proc, err := sim.New(cfg, inst.Prog, inst.Params(threads), sim.Memory(inst.Mem))
	if err != nil {
		return nil, 0, err
	}
	st, err := proc.RunContext(ctx)
	return st, proc.CacheEvictions(), err
}

// BestRun is the outcome of a best-thread-count search: the winning
// AIPC/thread count plus how much simulation it took to find it (the
// explore engine's progress accounting reads these).
type BestRun struct {
	AIPC    float64
	Threads int
	// Cycles is the winning run's simulated length; Traffic its total
	// message count (its NoC pressure).
	Cycles  uint64
	Traffic uint64
	// SimCycles totals simulated cycles across every thread count tried.
	SimCycles uint64
	// Sims counts the simulations performed (a reused run is not one).
	Sims int
	// Runs holds every thread count that ran to completion, in search
	// order, simulated or reused.
	Runs []ThreadRun
}

// ThreadRun is one thread count's completed run within a best-thread
// search: what the search compares, and whether the run is exact on the
// configuration's cache twins.
type ThreadRun struct {
	Threads int
	AIPC    float64
	Cycles  uint64
	Traffic uint64
	// Evicted reports that the run displaced or duplicated a cache line
	// (cache.System.Evictions). A run that did not is, event for event,
	// the run every cache twin of its configuration would make (a larger
	// L1 and L2; see the explore package), so a sweep copies it instead
	// of simulating the twin.
	Evicted bool
}

// BestThreadsContext runs the instance at each thread count and returns
// the best AIPC and the count achieving it, as the paper reports each
// application at its best-performing thread count. A count that fails
// (deadlock, cycle limit) does not abort the search; only if none is viable
// is the error one naming the workload and joining every per-count failure.
func BestThreadsContext(ctx context.Context, cfg sim.Config, inst *workload.Instance, counts []int) (BestRun, error) {
	return BestThreadsReusing(ctx, cfg, inst, counts, nil)
}

// BestThreadsReusing is BestThreadsContext with runs already known: for
// each thread count, reuse (when non-nil) may return a run that stands in
// for simulating that count on cfg. The caller vouches that it is exact —
// the explore engine passes eviction-free runs of configurations cfg is a
// cache twin of — and the search treats it exactly as a simulated run, so
// the result is the one BestThreadsContext would return, except that Sims
// does not count it.
func BestThreadsReusing(ctx context.Context, cfg sim.Config, inst *workload.Instance, counts []int,
	reuse func(threads int) (ThreadRun, bool)) (BestRun, error) {
	var best BestRun
	var errs []error
	for _, n := range counts {
		if n > inst.MaxThreads {
			continue
		}
		if err := ctx.Err(); err != nil {
			return BestRun{}, err
		}
		run, ok := ThreadRun{}, false
		if reuse != nil {
			run, ok = reuse(n)
		}
		if !ok {
			st, evictions, err := runOnce(ctx, cfg, inst, n)
			if err != nil {
				if ctx.Err() != nil {
					return BestRun{}, err
				}
				errs = append(errs, fmt.Errorf("threads=%d: %w", n, err))
				continue
			}
			best.Sims++
			run = ThreadRun{Threads: n, AIPC: st.AIPC(), Cycles: st.Cycles, Traffic: st.TrafficTotal(), Evicted: evictions > 0}
		}
		best.Runs = append(best.Runs, run)
		best.SimCycles += run.Cycles
		if run.AIPC > best.AIPC {
			best.AIPC, best.Threads, best.Cycles = run.AIPC, n, run.Cycles
			best.Traffic = run.Traffic
		}
	}
	if best.Threads == 0 {
		if len(errs) > 0 {
			return BestRun{}, fmt.Errorf("design: no viable thread count for %q: %w",
				inst.Prog.Name, errors.Join(errs...))
		}
		return BestRun{}, fmt.Errorf("design: no viable thread count for %q: none of %v within the workload's limit of %d threads",
			inst.Prog.Name, counts, inst.MaxThreads)
	}
	return best, nil
}

// SweepResult is one design point's measured performance across a suite.
type SweepResult struct {
	Point
	// AIPC per application name (best over thread counts).
	AIPC map[string]float64
	// Threads records the best thread count per application.
	Threads map[string]int
	// Mean is the arithmetic mean AIPC over the suite.
	Mean float64
	// Err is non-nil if any run failed; such results are excluded from
	// frontiers.
	Err error
}

// ValidateRun reports whether a workload scale and a list of thread counts
// describe runnable cells, wrapping ErrBadOptions on failure. The explore
// engine and the daemon's fabric endpoint validate eagerly with it.
func ValidateRun(sc workload.Scale, threadCounts []int) error {
	if sc.Iters <= 0 || sc.Footprint <= 0 {
		return fmt.Errorf("%w: scale %+v (Iters and Footprint must be positive; use workload.Tiny/Small/Medium)",
			ErrBadOptions, sc)
	}
	if len(threadCounts) == 0 {
		return fmt.Errorf("%w: ThreadCounts is empty (use []int{1} for single-threaded suites)", ErrBadOptions)
	}
	for _, n := range threadCounts {
		if n <= 0 {
			return fmt.Errorf("%w: thread count %d must be positive", ErrBadOptions, n)
		}
	}
	return nil
}

// Frontier extracts the Pareto frontier from sweep results (failed points
// are skipped).
func Frontier(results []SweepResult) []Evaluated {
	var evals []Evaluated
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		evals = append(evals, Evaluated{Point: r.Point, AIPC: r.Mean})
	}
	return Pareto(evals)
}

// WriteCSV emits sweep results as CSV (one row per design, one column per
// application plus area and mean), for plotting with external tools.
func WriteCSV(w io.Writer, results []SweepResult, apps []workload.Workload) error {
	cw := csv.NewWriter(w)
	header := []string{"clusters", "domains", "pes", "virt", "match", "l1_kb", "l2_mb", "area_mm2", "mean_aipc"}
	for _, a := range apps {
		header = append(header, a.Name+"_aipc", a.Name+"_threads")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		row := []string{
			strconv.Itoa(r.Arch.Clusters), strconv.Itoa(r.Arch.Domains),
			strconv.Itoa(r.Arch.PEs), strconv.Itoa(r.Arch.Virt),
			strconv.Itoa(r.Arch.Match), strconv.Itoa(r.Arch.L1KB),
			strconv.Itoa(r.Arch.L2MB),
			strconv.FormatFloat(r.Area, 'f', 2, 64),
			strconv.FormatFloat(r.Mean, 'f', 4, 64),
		}
		for _, a := range apps {
			row = append(row,
				strconv.FormatFloat(r.AIPC[a.Name], 'f', 4, 64),
				strconv.Itoa(r.Threads[a.Name]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
