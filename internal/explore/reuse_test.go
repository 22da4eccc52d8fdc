package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"wavescalar/internal/cache"
	"wavescalar/internal/design"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// directCell is the cell a sweep must produce for cfg: one
// design.BestThreadsContext on the cell's own configuration.
func directCell(cfg sim.Config, w workload.Workload, sc workload.Scale, counts []int) Cell {
	key := CellKey(cfg, w.Name, sc, counts)
	want := newCell(key, w.Name, cfg, sc)
	br, err := design.BestThreadsContext(context.Background(), cfg, w.Build(sc), counts)
	if err != nil {
		want.Err = err.Error()
		return want
	}
	want.AIPC, want.Threads = br.AIPC, br.Threads
	want.Cycles, want.SimCycles, want.Traffic = br.Cycles, br.SimCycles, br.Traffic
	return want
}

// TestSweepReuseMatchesDirect sweeps every viable point at tiny scale and
// checks every cell, the ones copied from a twin among them, field by
// field against a direct best-thread search on its own configuration, and
// a thinned sweep's by journal record (subsampleReuseMatchesDirect). Each
// sweep's reuse count is pinned exactly: a cell must copy every thread count that some
// earlier member of its twin chain has an exact run for.
func TestSweepReuseMatchesDirect(t *testing.T) {
	points := design.Viable()
	cases := []struct {
		name   string
		apps   []string
		counts []int
		reused int
	}{
		{"mcf+djpeg", []string{"mcf", "djpeg"}, []int{1}, 142},
		{"fft", []string{"fft"}, []int{1, 4}, 63},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			apps := testApps(t, tc.apps...)
			exp, err := New(WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := exp.SweepWith(context.Background(), points, apps, SweepSpec{
				Scale: workload.Tiny, ThreadCounts: tc.counts,
			}); err != nil {
				t.Fatal(err)
			}
			p := exp.LastProgress()
			if p.Simulated != len(points)*len(apps) || p.Reused != tc.reused {
				t.Fatalf("%d cells produced of which %d reused; want %d of %d", p.Simulated, p.Reused, tc.reused, len(points)*len(apps))
			}
			type cellCase struct {
				cfg sim.Config
				w   workload.Workload
			}
			var all []cellCase
			for _, pt := range points {
				cfg := sim.Baseline(pt.Arch)
				for _, w := range apps {
					all = append(all, cellCase{cfg, w})
				}
			}
			// The direct runs, on two goroutines like the sweep.
			var wg sync.WaitGroup
			for lane := 0; lane < 2; lane++ {
				wg.Add(1)
				go func(lane int) {
					defer wg.Done()
					for i := lane; i < len(all); i += 2 {
						c := all[i]
						want := directCell(c.cfg, c.w, workload.Tiny, tc.counts)
						got, ok := exp.Cache().Cell(want.Key)
						if !ok {
							t.Errorf("%s on %s: no cell", c.w.Name, c.cfg.Arch)
						} else if !reflect.DeepEqual(got, want) {
							t.Errorf("%s on %s: swept cell differs from a direct run:\ngot  %+v\nwant %+v", c.w.Name, c.cfg.Arch, got, want)
						}
					}
				}(lane)
			}
			wg.Wait()
		})
	}
	t.Run("spec2000/subsample-16", func(t *testing.T) { subsampleReuseMatchesDirect(t, 16, 63) })
	t.Run("spec2000/subsample-20", func(t *testing.T) { subsampleReuseMatchesDirect(t, 20, 87) })
}

// subsampleReuseMatchesDirect sweeps a thinned sample, the points
// design.Subsample keeps of maxPoints, with spec2000 at tiny scale: there the
// smallest L2 of a cache family is often missing, so much of the reuse
// copies a run to a twin with a smaller L2 than its base's, and the
// sample mixes L2:0MB points with their twins that have an L2, so some of
// it copies a run across that line. Every cell, the reused ones among
// them, must encode to the same journal record as a direct best-thread
// search on its own configuration (directCell, which copies nothing), and
// exactly `reused` cells must be copied, no more and no fewer (63 of 96
// cells at 16 points, 87 of 120 at 20).
func subsampleReuseMatchesDirect(t *testing.T, maxPoints, reused int) {
	points := design.Subsample(design.Viable(), maxPoints)
	apps := workload.BySuite(workload.Spec)
	counts := []int{1}
	exp, err := New(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.SweepWith(context.Background(), points, apps, SweepSpec{Scale: workload.Tiny, ThreadCounts: counts}); err != nil {
		t.Fatal(err)
	}
	p := exp.LastProgress()
	if p.Simulated != len(points)*len(apps) || p.Reused != reused {
		t.Fatalf("%d cells produced of which %d reused; want %d of %d",
			p.Simulated, p.Reused, reused, len(points)*len(apps))
	}
	// The direct runs, on two goroutines like the sweep.
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(points)*len(apps); i += 2 {
				pt, w := points[i/len(apps)], apps[i%len(apps)]
				want := directCell(sim.Baseline(pt.Arch), w, workload.Tiny, counts)
				got, ok := exp.Cache().Cell(want.Key)
				if !ok {
					t.Errorf("%s on %s: no cell", w.Name, pt.Arch)
					continue
				}
				g, _ := json.Marshal(cellRecord(got))
				d, _ := json.Marshal(cellRecord(want))
				if !bytes.Equal(g, d) {
					t.Errorf("%s on %s: swept cell differs from a direct run:\ngot  %s\nwant %s", w.Name, pt.Arch, g, d)
				}
			}
		}(lane)
	}
	wg.Wait()
}

// twinPair is a cache family of two: the baseline machine with an 8 KB L1
// and its twin with a 32 KB L1 (same 1 MB L2).
func twinPair() []design.Point {
	base, twin := sim.BaselineArch(), sim.BaselineArch()
	base.L1KB, twin.L1KB = 8, 32
	return []design.Point{{Arch: twin}, {Arch: base}} // out of order on purpose
}

// TestSweepResimulatesEvictingBase is the negative case: mcf at small
// scale evicts on an 8 KB L1, so its 32 KB twin must be simulated, and it
// indeed runs differently.
func TestSweepResimulatesEvictingBase(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale mcf runs")
	}
	pts := twinPair()
	mcf := testApps(t, "mcf")
	counts := []int{1}
	base := sim.Baseline(pts[1].Arch)
	br, err := design.BestThreadsContext(context.Background(), base, mcf[0].Build(workload.Small), counts)
	if err != nil {
		t.Fatal(err)
	}
	if br.Runs[0].Cache.Evictions == 0 {
		t.Fatal("mcf at small scale no longer evicts on an 8 KB L1; pick another negative case")
	}
	exp, err := New(WithParallelism(2), WithScale(workload.Small))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Sweep(context.Background(), pts, mcf); err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.Reused != 0 || p.Simulated != 2 {
		t.Fatalf("an evicting base was reused: %+v", p)
	}
	twin := sim.Baseline(pts[0].Arch)
	want := directCell(twin, mcf[0], workload.Small, counts)
	got, _ := exp.Cache().Cell(want.Key)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("twin cell differs from a direct run:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Cycles == br.Cycles {
		t.Errorf("the twin ran as long as its evicting base (%d cycles); the negative case proves nothing", got.Cycles)
	}
}

// TestReuseNeedsALocalBase pins which cells may serve as a base: one the
// same Explorer produced, in this call or an earlier Sweep or RunOne, but
// never one replayed from the journal, which carries no per-count runs.
// djpeg at tiny scale runs eviction-free on the 8 KB member, so its 32 KB
// twin is copied from any 8 KB cell the explorer simulated itself.
func TestReuseNeedsALocalBase(t *testing.T) {
	pts := twinPair()
	djpeg := testApps(t, "djpeg")
	counts := []int{1}
	ctx := context.Background()
	journal := t.TempDir() + "/base.jsonl"
	twin := directCell(sim.Baseline(pts[0].Arch), djpeg[0], workload.Tiny, counts)
	checkTwin := func(name string, exp *Explorer) {
		t.Helper()
		if got, ok := exp.Cache().Cell(twin.Key); !ok || !reflect.DeepEqual(got, twin) {
			t.Errorf("%s: twin cell %+v differs from a direct run %+v", name, got, twin)
		}
	}

	// In one sweep.
	exp, err := New(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Sweep(ctx, pts, djpeg); err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.Reused != 1 || p.Simulated != 2 || p.Sims != 1 {
		t.Fatalf("fresh sweep: %+v, want the twin reused", p)
	}
	checkTwin("fresh sweep", exp)

	// Across sweeps: the base is a cache hit of the second.
	exp, err = New(WithParallelism(1), WithJournal(journal, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Sweep(ctx, pts[1:], djpeg); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Sweep(ctx, pts, djpeg); err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.CacheHits != 1 || p.Reused != 1 || p.Simulated != 1 || p.Sims != 0 {
		t.Errorf("sweep over a base an earlier sweep simulated: %+v, want the twin reused", p)
	}
	checkTwin("across sweeps", exp)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	// Across RunOne calls, and from RunOne to a sweep.
	mid := pts[1].Arch
	mid.L1KB = 16
	exp, err = New(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, p, err := exp.RunOne(ctx, sim.Baseline(pts[1].Arch), djpeg[0], workload.Tiny, counts); err != nil || p.Sims != 1 {
		t.Fatalf("base RunOne: %+v, %v; want one simulation", p, err)
	}
	if _, p, err := exp.RunOne(ctx, sim.Baseline(pts[0].Arch), djpeg[0], workload.Tiny, counts); err != nil || p.Reused != 1 || p.Sims != 0 {
		t.Errorf("twin RunOne: %+v, %v; want the twin reused", p, err)
	}
	checkTwin("across RunOne", exp)
	if _, err := exp.Sweep(ctx, []design.Point{{Arch: mid}}, djpeg); err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.Reused != 1 || p.Sims != 0 {
		t.Errorf("sweep over a base RunOne simulated: %+v, want the twin reused", p)
	}

	// A journal-replayed cell is not a base.
	exp, err = New(WithParallelism(1), WithJournal(journal, true))
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if exp.Resumed() != 2 {
		t.Fatalf("replayed %d cells, want 2", exp.Resumed())
	}
	if _, p, err := exp.RunOne(ctx, sim.Baseline(mid), djpeg[0], workload.Tiny, counts); err != nil || p.Reused != 0 || p.Sims != 1 {
		t.Errorf("twin RunOne over a replayed base: %+v, %v; want the twin simulated", p, err)
	}
}

// TestReuseAcrossCallsIsExact draws seeded sequences of Sweep and RunOne
// calls over random subsets of the viable points and plays each on an
// explorer of parallelism 1 and one of 4. Every call must run as many
// simulations on both, and every cell must encode to the same journal
// record as a best-thread search without reuse on its own configuration.
// Some RunOne calls must copy their cell, which only a base from an
// earlier call can give.
func TestReuseAcrossCallsIsExact(t *testing.T) {
	viable := design.Viable()
	apps := testApps(t, "mcf", "djpeg", "fft")
	ctx := context.Background()
	type cellCase struct {
		cfg    sim.Config
		w      workload.Workload
		counts []int
	}
	cases := map[string]cellCase{}
	copiedRuns := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type call struct {
			points []design.Point
			apps   []workload.Workload
			counts []int
		}
		calls := make([]call, 8)
		for i := range calls {
			c := &calls[i]
			c.counts = [][]int{{1}, {1, 4}}[rng.Intn(2)]
			n := 1 // a RunOne
			if rng.Intn(3) != 0 {
				n = 2 + rng.Intn(7)
			}
			for _, pi := range rng.Perm(len(viable))[:n] {
				c.points = append(c.points, viable[pi])
			}
			for _, ai := range rng.Perm(len(apps))[:1+rng.Intn(len(apps))] {
				c.apps = append(c.apps, apps[ai])
			}
			if n == 1 {
				c.apps = c.apps[:1]
			}
			for _, pt := range c.points {
				cfg := sim.Baseline(pt.Arch)
				for _, w := range c.apps {
					cases[CellKey(cfg, w.Name, workload.Tiny, c.counts)] = cellCase{cfg, w, c.counts}
				}
			}
		}
		var sims [2][]int
		var cells [2][]Cell
		for i, par := range []int{1, 4} {
			exp, err := New(WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range calls {
				if len(c.points) == 1 {
					_, p, err := exp.RunOne(ctx, sim.Baseline(c.points[0].Arch), c.apps[0], workload.Tiny, c.counts)
					if err != nil {
						t.Fatal(err)
					}
					sims[i] = append(sims[i], p.Sims)
					copiedRuns += p.Reused
					continue
				}
				if _, err := exp.SweepWith(ctx, c.points, c.apps, SweepSpec{ThreadCounts: c.counts}); err != nil {
					t.Fatal(err)
				}
				sims[i] = append(sims[i], exp.LastProgress().Sims)
			}
			cells[i] = exp.Cache().Cells()
		}
		if !reflect.DeepEqual(sims[0], sims[1]) {
			t.Errorf("seed %d: simulations per call %v at parallelism 1, %v at 4", seed, sims[0], sims[1])
		}
		if !reflect.DeepEqual(cells[0], cells[1]) {
			t.Errorf("seed %d: the cells differ between parallelism 1 and 4", seed)
		}
		for _, got := range cells[0] {
			c := cases[got.Key]
			want := directCell(c.cfg, c.w, workload.Tiny, c.counts)
			g, _ := json.Marshal(cellRecord(got))
			d, _ := json.Marshal(cellRecord(want))
			if !bytes.Equal(g, d) {
				t.Errorf("seed %d: %s on %s: cell differs from a direct run:\ngot  %s\nwant %s", seed, c.w.Name, c.cfg.Arch, g, d)
			}
		}
	}
	if copiedRuns == 0 {
		t.Error("no RunOne copied its cell from an earlier call's base")
	}
}

// TestCacheFamilies pins the grouping into twin chains and their order:
// chains split by workload and by everything but the cache sizes, with an
// L2 or without, in the order of their first cell, members by ascending
// (L1, L2), no L2 first, ties in point order. V and M split chains too,
// except between cells where inert says V and M decide nothing: here app
// 0 is inert from V 128 up and app 1 only at V 256, so app 0's cells at
// V 128 and V 256 share a chain and app 1's do not, and neither app's
// cell at V 64 joins one. A point that differs in a field outside the
// caches, V and M (K here, or the cluster count) is in another chain, so
// no run is copied to it.
func TestCacheFamilies(t *testing.T) {
	arch := func(clusters, l1, l2, vm int) sim.Config {
		a := sim.BaselineArch()
		a.Clusters, a.L1KB, a.L2MB, a.Virt, a.Match = clusters, l1, l2, vm, vm
		return sim.Baseline(a)
	}
	otherK := arch(1, 16, 1, 128)
	otherK.K = 8
	configs := []sim.Config{arch(1, 32, 1, 128), arch(4, 8, 0, 128), arch(1, 8, 1, 256), arch(1, 8, 1, 128),
		arch(4, 16, 0, 128), arch(1, 16, 0, 64), arch(1, 8, 0, 128), otherK}
	got := twinChains(configs, 2, func(pi, ai int) bool { return configs[pi].Arch.Virt >= 128<<ai })
	// Cell pi·2 + ai is app ai on point pi.
	want := [][]int{{12, 4, 6, 0}, {13, 7, 1}, {2, 8}, {3, 9}, {5}, {10}, {11}, {14}, {15}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("twinChains = %v, want %v", got, want)
	}
}

// TestViableFamiliesAreChains pins the premise of the sweep's schedule on
// every viable point, for each suite at tiny scale with the thread counts
// its sweeps use: a cell waits only for cells whose runs it could copy.
// For each cell and every earlier member of its chain, at every thread
// count the workload runs, the two share V and M or the workload's
// placement is sim.Binding.Inert on both, and cache.Footprint.ExactOn
// passes the earlier member's run to the cell unless the run itself says
// otherwise (it does for a run that fetched, evicted and refetched
// nothing). The test also checks that the V/M rule is what keeps chains
// apart: some chain holds V/M siblings, and some V/M siblings (equal but
// for the cache sizes, V and M) are in different chains, where merging
// them would make a cell wait for a cell it could not copy from.
func TestViableFamiliesAreChains(t *testing.T) {
	var configs []sim.Config
	for _, pt := range design.Viable() {
		configs = append(configs, sim.Baseline(pt.Arch))
	}
	for _, tc := range []struct {
		suite  workload.Suite
		counts []int
	}{{workload.Spec, []int{1}}, {workload.Media, []int{1}}, {workload.Splash, []int{1, 4}}} {
		apps := workload.BySuite(tc.suite)
		insts := make([]*workload.Instance, len(apps))
		for ai, w := range apps {
			insts[ai] = w.Build(workload.Tiny)
		}
		binds := newBindings(insts, tc.counts)
		chains := twinChains(configs, len(apps), func(pi, ai int) bool { return binds.inert(configs[pi], ai) })
		merged := 0
		chainOf := map[int]int{}
		for ci, chain := range chains {
			for i, c := range chain {
				chainOf[c] = ci
				twin, ai := configs[c/len(apps)], c%len(apps)
				bound := map[int]sim.Binding{} // by thread count the cell runs
				for _, n := range tc.counts {
					if n <= insts[ai].MaxThreads {
						bound[n], _ = sim.Bind(twin, insts[ai].Prog, n)
					}
				}
				for _, bc := range chain[:i] {
					base := configs[bc/len(apps)]
					sameVM := base.Arch.Virt == twin.Arch.Virt && base.Arch.Match == twin.Arch.Match
					if !sameVM {
						merged++
					}
					for n, b := range bound {
						if !(sameVM || b.Inert(base) && b.Inert(twin)) || !(cache.Footprint{}).ExactOn(base.CacheConfig(), twin.CacheConfig()) {
							t.Errorf("%s: %s on %s waits for %s, whose %d-thread run it could never copy",
								tc.suite, apps[c%len(apps)].Name, twin.Arch, base.Arch, n)
						}
					}
				}
			}
		}
		apart := 0
		for pi, a := range configs {
			for qi := pi + 1; qi < len(configs); qi++ {
				b := configs[qi]
				if a.Arch.Virt == b.Arch.Virt || a.Arch.Clusters != b.Arch.Clusters || a.Arch.Domains != b.Arch.Domains || a.Arch.PEs != b.Arch.PEs {
					continue
				}
				for ai := range apps {
					if chainOf[pi*len(apps)+ai] != chainOf[qi*len(apps)+ai] {
						apart++
					}
				}
			}
		}
		if merged == 0 || apart == 0 {
			t.Errorf("%s: %d cell pairs of other V and M share a chain, %d are kept apart; want both > 0", tc.suite, merged, apart)
		}
	}
}

// TestViableSimulationCounts pins how many simulations a sweep of every
// viable point at tiny scale runs: those of spec2000 and mediabench with
// one thread, and of splash2 with one and four (474, 237 and 948 runs
// without reuse; 72, 21 and 118 with cache twins alone; 58, 10 and 96
// while a run whose cache evicted was never copied).
func TestViableSimulationCounts(t *testing.T) {
	points := design.Viable()
	for _, tc := range []struct {
		suite  workload.Suite
		counts []int
		sims   int
	}{{workload.Spec, []int{1}, 36}, {workload.Media, []int{1}, 10}, {workload.Splash, []int{1, 4}, 88}} {
		exp, err := New(WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exp.SweepWith(context.Background(), points, workload.BySuite(tc.suite), SweepSpec{
			Scale: workload.Tiny, ThreadCounts: tc.counts,
		}); err != nil {
			t.Fatal(err)
		}
		if p := exp.LastProgress(); p.Sims != tc.sims {
			t.Errorf("%s %v: %d simulations (%d cells, %d copied whole); want %d", tc.suite, tc.counts, p.Sims, p.Simulated, p.Reused, tc.sims)
		}
	}
}

// TestCellQueueOrder pins the order cells leave the queue in: point-major
// among the ready ones, a waiting cell once the cell it waits for is done.
// Cells wait per cell, not per point: here app 1 on point 2 waits for app
// 0 on point 0, and app 0 on point 2 for app 1 on point 0.
func TestCellQueueOrder(t *testing.T) {
	succ := []int{5, 4, -1, -1, -1, -1, -1, -1} // cell pi·2 + ai
	q := newCellQueue(succ)
	ctx := context.Background()
	var got []int
	take := func() {
		c, ok := q.next(ctx)
		if !ok {
			t.Fatal("queue ended early")
		}
		got = append(got, c)
	}
	for range 5 {
		take() // 0 1 2 3 6: cells 4 and 5 wait
	}
	q.done(0) // releases 5 ahead of 7
	take()
	q.done(1) // releases 4
	take()
	take()
	want := []int{0, 1, 2, 3, 6, 5, 4, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
	for _, c := range got[2:] {
		q.done(c)
	}
	if _, ok := q.next(ctx); ok {
		t.Error("queue handed out a cell after every cell was done")
	}
}

// BenchmarkSweepSubsample is a cold thinned sweep, spec2000 at tiny scale
// on the points design.Subsample keeps of sixteen, two workers: the shape
// of wspareto -max and /v1/sweeps max_points, where cache-family reuse
// decides how much is simulated. sims/op counts the simulations the sweep
// ran (Progress.Sims), 33 since evicting runs are copied between equal L1s
// (35 before).
func BenchmarkSweepSubsample(b *testing.B) {
	points := design.Subsample(design.Viable(), 16)
	apps := workload.BySuite(workload.Spec)
	b.ReportAllocs()
	sims := 0
	for i := 0; i < b.N; i++ {
		exp, err := New(WithParallelism(2))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exp.Sweep(context.Background(), points, apps); err != nil {
			b.Fatal(err)
		}
		p := exp.LastProgress()
		sims += p.Sims
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// TestCacheLimitKeepsSweepReuse: a sweep copies from its chains' own
// lists of bases, so a cache limit that evicts cells, and their bases,
// while the sweep runs changes neither what it copies nor how many
// simulations it runs, at any parallelism. The cold thinned spec2000
// sweep of BenchmarkSweepSubsample runs 33 simulations and copies 63
// cells whole under no limit and under limits of 1 and 8 cells, at
// parallelism 1, 2 and 4, and every row equals the unbounded sweep's.
func TestCacheLimitKeepsSweepReuse(t *testing.T) {
	points := design.Subsample(design.Viable(), 16)
	apps := workload.BySuite(workload.Spec)
	var want []design.SweepResult
	for _, limit := range []int{0, 1, 8} {
		for _, par := range []int{1, 2, 4} {
			opts := []Option{WithParallelism(par)}
			if limit > 0 {
				opts = append(opts, WithCacheLimit(limit))
			}
			exp, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exp.Sweep(context.Background(), points, apps)
			if err != nil {
				t.Fatal(err)
			}
			if p := exp.LastProgress(); p.Sims != 33 || p.Reused != 63 {
				t.Errorf("limit %d, parallelism %d: %d simulations, %d cells copied whole; want 33 and 63", limit, par, p.Sims, p.Reused)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("limit %d, parallelism %d: results differ from the unbounded sweep's", limit, par)
			}
		}
	}
}

// copiedCell sets up the cell TestCopiedCellAllocs measures: an explorer
// whose cache holds w's cell on the baseline machine with an 8 KB L1 and
// a 1 MB L2, and the configuration with a 2 MB L2, which RunOne answers
// by copying that cell's run.
func copiedCell(tb testing.TB, w workload.Workload) (*Explorer, sim.Config) {
	tb.Helper()
	arch := sim.BaselineArch()
	arch.L1KB, arch.L2MB = 8, 1
	exp, err := New()
	if err != nil {
		tb.Fatal(err)
	}
	if _, p, err := exp.RunOne(context.Background(), sim.Baseline(arch), w, workload.Tiny, []int{1}); err != nil || p.Sims != 1 {
		tb.Fatalf("%s: base cell ran %d simulations (error %v), want 1", w.Name, p.Sims, err)
	}
	arch.L2MB = 2
	return exp, sim.Baseline(arch)
}

// TestCopiedCellAllocs: a RunOne answered by copying its twin's run
// costs the work around the copy, not a rebuild of its workload. The
// instance is shared per scale (workload.Workload.Build), so the copy
// allocates a handful of objects whatever the size of the workload's
// image.
func TestCopiedCellAllocs(t *testing.T) {
	const budget = 16
	for _, w := range testApps(t, "lu", "ocean", "mcf", "djpeg") {
		exp, cfg := copiedCell(t, w)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, p, err := exp.RunOne(context.Background(), cfg, w, workload.Tiny, []int{1})
		runtime.ReadMemStats(&after)
		if err != nil || p.Reused != 1 || p.Sims != 0 {
			t.Fatalf("%s: reused %d cells with %d simulations (error %v), want a copy", w.Name, p.Reused, p.Sims, err)
		}
		if n := after.Mallocs - before.Mallocs; n > budget {
			t.Errorf("%s: a copied cell made %d mallocs (%d bytes), budget %d", w.Name, n, after.TotalAlloc-before.TotalAlloc, budget)
		}
	}
}

// BenchmarkCopiedCell is TestCopiedCellAllocs's cell on lu: one RunOne
// copied from its twin, on a fresh explorer each iteration.
func BenchmarkCopiedCell(b *testing.B) {
	w := testApps(b, "lu")[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		exp, cfg := copiedCell(b, w)
		b.StartTimer()
		if _, p, err := exp.RunOne(context.Background(), cfg, w, workload.Tiny, []int{1}); err != nil || p.Reused != 1 {
			b.Fatalf("reused %d cells (error %v), want a copy", p.Reused, err)
		}
	}
}
