// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation, plus ablations for the microarchitectural claims made
// inline in Section 3. Each benchmark prints the rows/series the paper
// reports (via b.Log) and reports simulator throughput; the command-line
// tools (wsarea, wstune, wspareto, wstraffic) regenerate the same artifacts
// at larger scales.
//
//	go test -bench=. -benchmem
package wavescalar_test

import (
	"context"
	"fmt"
	"testing"

	"wavescalar"
	"wavescalar/internal/design"
	"wavescalar/internal/place"
	"wavescalar/internal/workload"
)

// runWorkload is shorthand for RunWorkloadContext with a background
// context, used throughout these benchmarks.
func runWorkload(cfg wavescalar.Config, app string, sc wavescalar.Scale, threads int) (*wavescalar.Stats, error) {
	return wavescalar.RunWorkloadContext(context.Background(), app,
		wavescalar.WithConfig(cfg), wavescalar.AtScale(sc), wavescalar.WithThreads(threads))
}

// BenchmarkTable1Baseline exercises the baseline configuration of Table 1:
// one run of the fft kernel on the 1-cluster machine, reporting simulated
// cycles per second.
func BenchmarkTable1Baseline(b *testing.B) {
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())
	var cycles uint64
	for i := 0; i < b.N; i++ {
		st, err := runWorkload(cfg, "fft", wavescalar.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "simcycles/run")
}

// BenchmarkTable2AreaBudget regenerates the cluster area budget.
func BenchmarkTable2AreaBudget(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = wavescalar.ClusterBudget()
	}
	b.Log("\n" + out)
}

// BenchmarkTable3AreaModel evaluates the area model across the full
// enumerated design space.
func BenchmarkTable3AreaModel(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(wavescalar.DesignSpace())
	}
	b.ReportMetric(float64(n), "configs")
}

// BenchmarkTable4Tuning runs the matching-table tuning procedure for one
// representative application per suite.
func BenchmarkTable4Tuning(b *testing.B) {
	for _, name := range []string{"gzip", "rawdaudio", "fft"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := wavescalar.WorkloadByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var tn wavescalar.Tuning
			for i := 0; i < b.N; i++ {
				// A fresh explorer per iteration: an empty cache, so every
				// k and u step simulates.
				exp, err := wavescalar.NewExplorer()
				if err != nil {
					b.Fatal(err)
				}
				if tn, _, err = exp.Tune(context.Background(), w, wavescalar.ScaleTiny); err != nil {
					b.Fatal(err)
				}
			}
			b.Logf("%s: k_opt=%d u_opt=%d ratio=%.2f", tn.App, tn.KOpt, tn.UOpt, tn.Ratio)
		})
	}
}

// coldSweep runs one Explorer.Sweep at ScaleTiny on a fresh explorer (empty
// cache, no journal), so every iteration simulates every cell.
func coldSweep(b *testing.B, points []wavescalar.DesignPoint, apps []wavescalar.Workload, threads []int) []wavescalar.SweepResult {
	exp, err := wavescalar.NewExplorer(wavescalar.WithThreadCounts(threads...))
	if err != nil {
		b.Fatal(err)
	}
	defer exp.Close()
	results, err := exp.Sweep(context.Background(), points, apps)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// benchSweep runs a small design-space sweep and logs the frontier.
func benchSweep(b *testing.B, apps []wavescalar.Workload, threads []int, nPoints int) {
	points := wavescalar.ViableDesigns()
	sub := make([]wavescalar.DesignPoint, 0, nPoints)
	for i := 0; i < nPoints; i++ {
		sub = append(sub, points[i*len(points)/nPoints])
	}
	var frontier []wavescalar.Evaluated
	for i := 0; i < b.N; i++ {
		results := coldSweep(b, sub, apps, threads)
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		frontier = wavescalar.SweepFrontier(results)
	}
	rows := design.FrontierTable(frontier)
	b.Log("\n" + design.FormatFrontier(rows))
	if len(frontier) >= 2 {
		lo, hi := frontier[0], frontier[len(frontier)-1]
		b.ReportMetric(hi.AIPC/lo.AIPC, "aipc-span")
		b.ReportMetric(hi.Area/lo.Area, "area-span")
	}
}

// BenchmarkTable5ParetoSplash2 regenerates the shape of Table 5: the
// Pareto-optimal configurations for the Splash2 suite.
func BenchmarkTable5ParetoSplash2(b *testing.B) {
	apps := workload.BySuite(workload.Splash)[:3] // fft, lu, ocean
	benchSweep(b, apps, []int{1, 4, 16}, 5)
}

// BenchmarkFigure6ParetoSpec regenerates the single-threaded Spec series
// of Figure 6 on a design subsample.
func BenchmarkFigure6ParetoSpec(b *testing.B) {
	apps := workload.BySuite(workload.Spec)[:3]
	benchSweep(b, apps, []int{1}, 4)
}

// BenchmarkFigure6ParetoMediabench regenerates the Mediabench series.
func BenchmarkFigure6ParetoMediabench(b *testing.B) {
	apps := workload.BySuite(workload.Media)
	benchSweep(b, apps, []int{1}, 4)
}

// BenchmarkFigure7ScalableDesigns measures the Figure 7 experiment: the
// best one-cluster design naively replicated versus the area-efficient
// tile, against the frontier.
func BenchmarkFigure7ScalableDesigns(b *testing.B) {
	apps := workload.BySuite(workload.Splash)[:2]
	points := wavescalar.ViableDesigns()
	var picks []wavescalar.DesignPoint
	for _, p := range points {
		if p.Arch.Clusters <= 4 {
			picks = append(picks, p)
		}
	}
	sub := make([]wavescalar.DesignPoint, 0, 8)
	for i := 0; i < 8; i++ {
		sub = append(sub, picks[i*len(picks)/8])
	}
	var plan []design.ScaledPoint
	for i := 0; i < b.N; i++ {
		var err error
		plan, err = design.ScalingPlan(coldSweep(b, sub, apps, []int{1, 4, 16}))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range plan {
		b.Logf("%-2s %-44s %7.1f mm2 AIPC %.3f", p.Label, p.Desc, p.Area, p.AIPC)
	}
}

// BenchmarkFigure8Traffic regenerates the traffic distribution for one
// workload per suite at 1 and 4 clusters.
func BenchmarkFigure8Traffic(b *testing.B) {
	for _, tc := range []struct {
		app      string
		clusters int
		threads  int
	}{
		{"gzip", 1, 1}, {"djpeg", 1, 1}, {"fft", 1, 1}, {"fft", 4, 4},
	} {
		tc := tc
		b.Run(fmt.Sprintf("%s/C%d", tc.app, tc.clusters), func(b *testing.B) {
			arch := wavescalar.BaselineArch()
			arch.Clusters = tc.clusters
			cfg := wavescalar.Baseline(arch)
			var st *wavescalar.Stats
			for i := 0; i < b.N; i++ {
				var err error
				st, err = runWorkload(cfg, tc.app, wavescalar.ScaleTiny, tc.threads)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*st.TrafficShare(wavescalar.LevelPod), "%pod-or-below")
			b.ReportMetric(100*st.TrafficShare(wavescalar.LevelDomain), "%domain-or-below")
			b.ReportMetric(100*st.TrafficShare(wavescalar.LevelCluster), "%cluster-or-below")
			b.ReportMetric(100*st.OperandShare(), "%operand")
		})
	}
}

// --- Section 3 ablations -------------------------------------------------

// ablate runs fft under two configurations and reports the speedup of the
// second over the first.
func ablate(b *testing.B, app string, threads int, base, varied wavescalar.Config) (baseAIPC, variedAIPC float64) {
	for i := 0; i < b.N; i++ {
		s1, err := runWorkload(base, app, wavescalar.ScaleTiny, threads)
		if err != nil {
			b.Fatal(err)
		}
		s2, err := runWorkload(varied, app, wavescalar.ScaleTiny, threads)
		if err != nil {
			b.Fatal(err)
		}
		baseAIPC, variedAIPC = s1.AIPC(), s2.AIPC()
	}
	b.ReportMetric(variedAIPC/baseAIPC, "speedup")
	return baseAIPC, variedAIPC
}

// BenchmarkAblationPodBypass measures the 2-PE pod against isolated PEs
// (the paper: pods are 15% faster on average).
func BenchmarkAblationPodBypass(b *testing.B) {
	solo := wavescalar.Baseline(wavescalar.BaselineArch())
	solo.PodSize = 1
	solo.SpecFire = false
	pod := wavescalar.Baseline(wavescalar.BaselineArch())
	a1, a2 := ablate(b, "fft", 1, solo, pod)
	b.Logf("isolated PEs %.3f vs pods %.3f AIPC", a1, a2)
}

// BenchmarkAblationMatchAssoc measures 1-way versus 2-way matching tables
// (the paper: 2-way improves performance ~10%).
func BenchmarkAblationMatchAssoc(b *testing.B) {
	direct := wavescalar.Baseline(wavescalar.BaselineArch())
	direct.MatchAssoc = 1
	twoWay := wavescalar.Baseline(wavescalar.BaselineArch())
	a1, a2 := ablate(b, "fft", 1, direct, twoWay)
	b.Logf("1-way %.3f vs 2-way %.3f AIPC", a1, a2)
}

// BenchmarkAblationMatchBanks measures 2 versus 4 matching-table banks
// (the paper: halving banks costs ~5% on average).
func BenchmarkAblationMatchBanks(b *testing.B) {
	two := wavescalar.Baseline(wavescalar.BaselineArch())
	two.MatchBanks = 2
	four := wavescalar.Baseline(wavescalar.BaselineArch())
	a1, a2 := ablate(b, "fft", 1, two, four)
	b.Logf("2 banks %.3f vs 4 banks %.3f AIPC", a1, a2)
}

// BenchmarkAblationPartialStoreQueues measures the store buffer with and
// without partial store queues (the paper: +5-20% depending on app).
func BenchmarkAblationPartialStoreQueues(b *testing.B) {
	none := wavescalar.Baseline(wavescalar.BaselineArch())
	none.PSQs = 0
	psq := wavescalar.Baseline(wavescalar.BaselineArch())
	a1, a2 := ablate(b, "water", 1, none, psq)
	b.Logf("no PSQs %.3f vs 2 PSQs %.3f AIPC", a1, a2)
}

// BenchmarkAblationNetworkBandwidth measures inter-cluster port bandwidth
// 1 versus 2 operands/cycle (the paper: halving costs 52% on average for
// traffic-heavy runs).
func BenchmarkAblationNetworkBandwidth(b *testing.B) {
	arch := wavescalar.BaselineArch()
	arch.Clusters = 4
	one := wavescalar.Baseline(arch)
	one.NocBW = 1
	two := wavescalar.Baseline(arch)
	// Oversubscribe threads so cross-cluster spill traffic exists.
	a1, a2 := ablate(b, "fft", 8, one, two)
	b.Logf("BW=1 %.3f vs BW=2 %.3f AIPC", a1, a2)
}

// BenchmarkAblationSpeculativeFire measures the speculative consumer
// scheduling that enables back-to-back dependent execution.
func BenchmarkAblationSpeculativeFire(b *testing.B) {
	off := wavescalar.Baseline(wavescalar.BaselineArch())
	off.SpecFire = false
	on := wavescalar.Baseline(wavescalar.BaselineArch())
	a1, a2 := ablate(b, "rawdaudio", 1, off, on)
	b.Logf("no spec-fire %.3f vs spec-fire %.3f AIPC", a1, a2)
}

// BenchmarkSimulatorThroughput reports raw simulation speed (dynamic
// instructions per wall-clock second) for the bundled suite.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())
	w, err := wavescalar.WorkloadByName("ocean")
	if err != nil {
		b.Fatal(err)
	}
	inst := w.Build(workload.Small)
	var dyn uint64
	for i := 0; i < b.N; i++ {
		st, err := design.RunOnceContext(context.Background(), cfg, inst, 1)
		if err != nil {
			b.Fatal(err)
		}
		dyn = st.Dynamic
	}
	b.ReportMetric(float64(dyn), "dyninsts/run")
}

// BenchmarkAblationPlacement compares locality-aware placement against a
// round-robin scatter (the premise of the hierarchical interconnect).
func BenchmarkAblationPlacement(b *testing.B) {
	local := wavescalar.Baseline(wavescalar.BaselineArch())
	scatter := wavescalar.Baseline(wavescalar.BaselineArch())
	scatter.Placement = place.PolicyScatter
	var lShare, sShare float64
	for i := 0; i < b.N; i++ {
		s1, err := runWorkload(local, "fft", wavescalar.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		s2, err := runWorkload(scatter, "fft", wavescalar.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		lShare, sShare = s1.TrafficShare(wavescalar.LevelPod), s2.TrafficShare(wavescalar.LevelPod)
	}
	b.ReportMetric(100*lShare, "%pod-local-chunked")
	b.ReportMetric(100*sShare, "%pod-local-scatter")
}

// BenchmarkMatchingCapacitySweep sweeps matching-table sizes on a narrow
// machine (Section 4.2: when demands on matching table space are too
// great, thrashing can cost up to 50%).
func BenchmarkMatchingCapacitySweep(b *testing.B) {
	for _, m := range []int{16, 32, 64, 128} {
		m := m
		b.Run(fmt.Sprintf("M%d", m), func(b *testing.B) {
			arch := wavescalar.BaselineArch()
			arch.Domains = 1
			arch.PEs = 2
			arch.Virt = 256
			arch.Match = m
			cfg := wavescalar.Baseline(arch)
			var aipc float64
			var evictions uint64
			for i := 0; i < b.N; i++ {
				st, err := runWorkload(cfg, "fft", wavescalar.ScaleTiny, 1)
				if err != nil {
					b.Fatal(err)
				}
				aipc = st.AIPC()
				evictions = st.Match.Evictions + st.Match.OverflowHits
			}
			b.ReportMetric(aipc, "AIPC")
			b.ReportMetric(float64(evictions), "match-misses")
		})
	}
}

// BenchmarkTracingDisabled is the overhead guard for the tracing subsystem:
// it runs the same workload as BenchmarkTable1Baseline with Config.Trace
// nil. The nil-recorder fast path must keep this within noise (<2%) of the
// pre-tracing simulator; compare against BenchmarkTracingEnabled for the
// cost of full event recording.
func BenchmarkTracingDisabled(b *testing.B) {
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())
	cfg.Trace = nil
	var cycles uint64
	for i := 0; i < b.N; i++ {
		st, err := runWorkload(cfg, "fft", wavescalar.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "simcycles/run")
}

// BenchmarkTracingEnabled measures the fully-instrumented run: every PE
// fire, stall, message, cache and store-buffer event recorded into the
// ring plus interval and per-tile aggregation.
func BenchmarkTracingEnabled(b *testing.B) {
	arch := wavescalar.BaselineArch()
	var cycles, events uint64
	for i := 0; i < b.N; i++ {
		cfg := wavescalar.Baseline(arch)
		rec := wavescalar.NewTraceRecorder(wavescalar.TraceOptions{})
		cfg.Trace = rec
		st, err := runWorkload(cfg, "fft", wavescalar.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
		events = uint64(rec.Len()) + rec.Dropped()
	}
	b.ReportMetric(float64(cycles), "simcycles/run")
	b.ReportMetric(float64(events), "events/run")
}
