package wavescalar_test

import (
	"context"
	"fmt"
	"os"

	"wavescalar"
)

// The README's three Go snippets as Example functions, so `go vet ./...`
// compiles what the README shows. They carry no Output comment: they are
// compiled (and rendered by godoc), not run.

// README "Quickstart".
func ExampleRunWorkloadContext() {
	// The paper's baseline machine: 1 cluster of 4 domains x 8 PEs,
	// 128-entry matching tables and instruction stores.
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())

	// Run the fft kernel (a Splash2 stand-in) with 1 thread.
	stats, err := wavescalar.RunWorkloadContext(context.Background(), "fft",
		wavescalar.WithConfig(cfg), wavescalar.AtScale(wavescalar.ScaleSmall), wavescalar.WithThreads(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("AIPC %.2f over %d cycles\n", stats.AIPC(), stats.Cycles)
	fmt.Printf("%.0f%% of traffic stayed within one cluster\n",
		100*stats.TrafficShare(wavescalar.LevelCluster))
}

// README "Exploration engine".
func ExampleNewExplorer() {
	ctx := context.Background()
	points := wavescalar.ViableDesigns()[:4]
	apps := wavescalar.Workloads()[:2]
	resume := true

	exp, err := wavescalar.NewExplorer(
		wavescalar.WithScale(wavescalar.ScaleSmall),
		wavescalar.WithThreadCounts(1, 4, 16, 64),
		wavescalar.WithJournal("sweep.jsonl", resume), // checkpoint + resume
		wavescalar.WithParallelism(8),
		wavescalar.WithProgress(func(p wavescalar.ExploreProgress) {
			fmt.Printf("\r%d/%d cells, ETA %s", p.Done, p.Total, p.ETA)
		}),
	)
	if err != nil {
		panic(err)
	}
	defer exp.Close()
	results, err := exp.Sweep(ctx, points, apps) // honours ctx cancellation
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n%d designs on the frontier\n", len(wavescalar.SweepFrontier(results)))
}

// README "Observability".
func ExampleNewTraceRecorder() {
	ctx := context.Background()
	f, g := os.Stdout, os.Stderr // any io.Writer

	cfg := wavescalar.Baseline(wavescalar.BaselineArch())
	rec := wavescalar.NewTraceRecorder(wavescalar.TraceOptions{})
	cfg.Trace = rec
	if _, err := wavescalar.RunWorkloadContext(ctx, "fft", wavescalar.WithConfig(cfg), wavescalar.AtScale(wavescalar.ScaleTiny)); err != nil { // 1 thread
		panic(err)
	}
	rec.WriteChromeTrace(f) // load at https://ui.perfetto.dev
	rec.WriteCounterCSV(g)  // cycle,fires,stalls,op_self,...,sb_commits
}
