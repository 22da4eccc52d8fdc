// Command wspareto performs the paper's design-space Pareto analysis
// (Figures 6 and 7, Table 5): it enumerates the viable WaveScalar designs,
// simulates a benchmark suite on each through the exploration engine, and
// prints the area/AIPC series and the Pareto frontier.
//
// Usage:
//
//	wspareto -suite splash2 -scale tiny           # Figure 6 + Table 5
//	wspareto -suite spec2000                      # Figure 6 (single-threaded)
//	wspareto -suite splash2 -scaling              # Figure 7 analysis
//	wspareto -suite splash2 -max 20               # subsample the space
//
// Long sweeps are checkpointable: -journal appends every completed
// (design, workload) cell to a JSONL file as it finishes, and a rerun
// with -resume replays the journal and simulates only the missing cells,
// so Ctrl-C or a crash loses at most the cells in flight:
//
//	wspareto -suite splash2 -journal sweep.jsonl           # start
//	wspareto -suite splash2 -journal sweep.jsonl -resume   # continue
//
// -timeout bounds the run; an interrupted or timed-out sweep exits with
// status 3 after flushing the journal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"wavescalar"
	"wavescalar/internal/cli"
	"wavescalar/internal/design"
	"wavescalar/internal/version"
	"wavescalar/internal/workload"
)

func main() {
	suite := flag.String("suite", "splash2", "suite: spec2000, mediabench, splash2, tiled")
	scale := flag.String("scale", "tiny", "workload scale: tiny, small, medium")
	scaling := flag.Bool("scaling", false, "run the Figure 7 scaled-design analysis")
	maxPoints := flag.Int("max", 0, "evaluate at most this many designs (0 = all)")
	maxApps := flag.Int("maxapps", 0, "evaluate at most this many workloads (0 = all)")
	par := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	csvPath := flag.String("csv", "", "also write the sweep results to this CSV file")
	journalPath := flag.String("journal", "", "append completed cells to this JSONL journal")
	resume := flag.Bool("resume", false, "replay the journal first and simulate only missing cells")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this duration (0 = none)")
	quiet := flag.Bool("quiet", false, "suppress the progress line on stderr")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Line("wspareto"))
		return
	}
	if *resume && *journalPath == "" {
		fail(errors.New("-resume requires -journal"))
	}

	sc, err := cli.ParseScale(*scale)
	if err != nil {
		fail(err)
	}
	st, threads, ok := workload.SuiteByName(*suite)
	if !ok {
		fail(fmt.Errorf("unknown suite %q", *suite))
	}
	apps := workload.BySuite(st)
	if *maxApps > 0 && *maxApps < len(apps) {
		apps = apps[:*maxApps]
	}

	points := wavescalar.ViableDesigns()
	if *maxPoints > 0 && *maxPoints < len(points) {
		points = design.Subsample(points, *maxPoints)
	}
	fmt.Printf("evaluating %d designs on %s (%d apps, scale %s, threads %v)\n\n",
		len(points), st, len(apps), *scale, threads)

	// Ctrl-C cancels the sweep; completed cells are already journaled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []wavescalar.ExploreOption{
		wavescalar.WithScale(sc),
		wavescalar.WithThreadCounts(threads...),
	}
	if *par > 0 {
		opts = append(opts, wavescalar.WithParallelism(*par))
	}
	if *journalPath != "" {
		opts = append(opts, wavescalar.WithJournal(*journalPath, *resume))
	}
	if !*quiet {
		opts = append(opts, wavescalar.WithProgress(progressPrinter()))
	}
	exp, err := wavescalar.NewExplorer(opts...)
	if err != nil {
		fail(err)
	}
	defer exp.Close()
	if *resume {
		fmt.Fprintf(os.Stderr, "resumed %d journaled cells from %s\n", exp.Resumed(), *journalPath)
	}

	results, sweepErr := exp.Sweep(ctx, points, apps)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if p := exp.LastProgress(); p.Total > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d cells (%d cached, %d simulated of which %d reused, %d failed) in %s\n",
			p.Done, p.Total, p.CacheHits, p.Simulated, p.Reused, p.Failed, p.Elapsed.Round(time.Millisecond))
	}
	if sweepErr != nil {
		if err := exp.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "wspareto: closing journal:", err)
		}
		fmt.Fprintln(os.Stderr, "wspareto:", sweepErr)
		if *journalPath != "" {
			fmt.Fprintf(os.Stderr, "wspareto: completed cells are journaled; rerun with -journal %s -resume to continue\n", *journalPath)
		}
		os.Exit(3)
	}

	fmt.Println("Figure 6 series (area mm2, mean AIPC, per-app AIPC):")
	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("  %-36s FAILED: %v\n", r.Arch.String(), r.Err)
			continue
		}
		fmt.Printf("  %-36s %7.1f %6.3f  %s\n", r.Arch.String(), r.Area, r.Mean, appSummary(r))
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		if err := design.WriteCSV(f, results, apps); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}

	// Figure 6's plot: all designs as dots, the frontier circled.
	plot := design.NewScatterPlot()
	var evals []wavescalar.Evaluated
	for _, r := range results {
		if r.Err == nil {
			evals = append(evals, wavescalar.Evaluated{Point: r.Point, AIPC: r.Mean})
		}
	}
	plot.AddSeries(evals)
	fmt.Printf("\nFigure 6 (%s): '.' = design, 'o' = Pareto optimal\n\n", st)
	fmt.Print(plot.Render())

	frontier := wavescalar.SweepFrontier(results)
	fmt.Printf("\nPareto-optimal configurations (%s) — the shape of Table 5:\n\n", st)
	fmt.Print(design.FormatFrontier(design.FrontierTable(frontier)))

	if len(frontier) >= 2 {
		lo, hi := frontier[0], frontier[len(frontier)-1]
		fmt.Printf("\nscaling across the frontier: %.1fx area buys %.1fx AIPC (%.0f..%.0f mm2)\n",
			hi.Area/lo.Area, hi.AIPC/lo.AIPC, lo.Area, hi.Area)
	}

	if *scaling {
		runScaling(ctx, exp, results, apps)
	}
}

// progressPrinter returns a WithProgress callback that repaints one
// status line on stderr, throttled so huge sweeps aren't I/O bound.
func progressPrinter() func(wavescalar.ExploreProgress) {
	var last time.Time
	return func(p wavescalar.ExploreProgress) {
		if time.Since(last) < 200*time.Millisecond && p.Done != p.Total {
			return
		}
		last = time.Now()
		eta := "--"
		if p.ETA > 0 {
			eta = p.ETA.Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "\r%d/%d cells | %d cached | %d simulated | %d reused | %.1f cells/s | ETA %-8s",
			p.Done, p.Total, p.CacheHits, p.Simulated, p.Reused, p.CellsPerSec, eta)
	}
}

func runScaling(ctx context.Context, exp *wavescalar.Explorer,
	results []wavescalar.SweepResult, apps []wavescalar.Workload) {
	plan, err := design.ScalingPlan(results)
	if err != nil {
		fail(err)
	}
	// Measure the replicated designs that have no AIPC yet; the explorer's
	// cache means any overlap with the main sweep is free.
	var toRun []wavescalar.DesignPoint
	var idx []int
	for i, p := range plan {
		if p.AIPC == 0 {
			toRun = append(toRun, wavescalar.DesignPoint{Arch: p.Arch, Area: p.Area})
			idx = append(idx, i)
		}
	}
	runs, err := exp.Sweep(ctx, toRun, apps)
	if err != nil {
		fail(err)
	}
	for j, r := range runs {
		if r.Err != nil {
			fail(r.Err)
		}
		plan[idx[j]].AIPC = r.Mean
	}
	frontier := wavescalar.SweepFrontier(results)
	fmt.Println("\nFigure 7 scaled-design analysis:")
	for _, p := range plan {
		gap := design.NearestFrontierGap(frontier, p.Area, p.AIPC)
		fmt.Printf("  %-2s %-44s %7.1f mm2  AIPC %6.3f  frontier gap %.2fx\n",
			p.Label, p.Desc, p.Area, p.AIPC, gap)
	}
	fmt.Println("\n  (gap = area relative to the smallest frontier design of equal performance;")
	fmt.Println("   the paper's lesson: replicating the best-performing tile lands far off the")
	fmt.Println("   frontier, replicating the most area-efficient tile lands near it)")
}

func appSummary(r wavescalar.SweepResult) string {
	names := make([]string, 0, len(r.AIPC))
	for n := range r.AIPC {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("%s=%.2f(t%d) ", n, r.AIPC[n], r.Threads[n])
	}
	return s
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wspareto:", err)
	os.Exit(1)
}
