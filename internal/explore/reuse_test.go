package explore

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"wavescalar/internal/design"
	"wavescalar/internal/fault"
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
// checks every cell, the ones copied from a cache twin among them, field
// by field against a direct best-thread search on its own configuration,
// with and without a memory drop/delay fault script.
func TestSweepReuseMatchesDirect(t *testing.T) {
	points := design.Viable()
	memFaults := &fault.Script{Seed: 31, MemDropRate: 0.02, MemDelayRate: 0.05}
	cases := []struct {
		name   string
		apps   []string
		counts []int
		fault  *fault.Script
	}{
		{"mcf+djpeg", []string{"mcf", "djpeg"}, []int{1}, nil},
		{"fft", []string{"fft"}, []int{1, 4}, nil},
		{"mcf+djpeg/mem-faults", []string{"mcf", "djpeg"}, []int{1}, memFaults},
		{"fft/mem-faults", []string{"fft"}, []int{1, 4}, memFaults},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			apps := testApps(t, tc.apps...)
			exp, err := New(WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := exp.SweepWith(context.Background(), points, apps, SweepSpec{
				Scale: workload.Tiny, ThreadCounts: tc.counts, Fault: tc.fault,
			}); err != nil {
				t.Fatal(err)
			}
			p := exp.LastProgress()
			if p.Reused == 0 {
				t.Fatalf("no cell was reused: %+v", p)
			}
			if p.Simulated != len(points)*len(apps) {
				t.Fatalf("%d cells produced, want %d", p.Simulated, len(points)*len(apps))
			}
			t.Logf("%d of %d cells reused", p.Reused, p.Simulated)
			type cellCase struct {
				cfg sim.Config
				w   workload.Workload
			}
			var all []cellCase
			for _, pt := range points {
				cfg := sim.Baseline(pt.Arch)
				cfg.Fault = tc.fault
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
	if !br.Runs[0].Evicted {
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

// TestReuseNeedsALocalBase pins which cells may serve as a base: only one
// the same sweep simulated itself. djpeg at tiny scale runs eviction-free
// on the 8 KB member, so a fresh sweep copies the twin; but when the 8 KB
// cell is a cache hit there are no per-count runs to copy and the twin is
// simulated, and a sweep with a CellRunner sends both cells out.
func TestReuseNeedsALocalBase(t *testing.T) {
	pts := twinPair()
	djpeg := testApps(t, "djpeg")
	ctx := context.Background()

	exp, err := New(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Sweep(ctx, pts, djpeg); err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.Reused != 1 || p.Simulated != 2 {
		t.Fatalf("fresh sweep: %+v, want the twin reused", p)
	}

	// A cache hit is not a base.
	exp, err = New(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Sweep(ctx, pts[1:], djpeg); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Sweep(ctx, pts, djpeg); err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.CacheHits != 1 || p.Reused != 0 || p.Simulated != 1 {
		t.Errorf("sweep over a cached base: %+v, want the twin simulated", p)
	}

	// Nor is a remote cell.
	remote, err := New(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var asked []string
	runner := func(ctx context.Context, key string, cfg sim.Config, app string, sc workload.Scale, counts []int) (Cell, error) {
		asked = append(asked, cfg.Arch.String())
		cell, _, err := remote.RunOne(ctx, cfg, djpeg[0], sc, counts)
		return cell, err
	}
	exp, err = New(WithParallelism(1), WithRunner(runner))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Sweep(ctx, pts, djpeg); err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.Remote != 2 || p.Reused != 0 {
		t.Errorf("sweep with a runner: %+v, want both cells remote", p)
	}
	if len(asked) != 2 {
		t.Errorf("runner asked for %v, want both members", asked)
	}
}

// TestCacheFamilies pins the grouping and the walk order: families split
// by everything but the cache sizes and by L2 presence, in the order of
// their first point, members by ascending (L1, L2).
func TestCacheFamilies(t *testing.T) {
	arch := func(clusters, l1, l2 int) sim.Config {
		a := sim.BaselineArch()
		a.Clusters, a.L1KB, a.L2MB = clusters, l1, l2
		return sim.Baseline(a)
	}
	configs := []sim.Config{arch(1, 32, 1), arch(4, 8, 0), arch(1, 8, 4), arch(1, 8, 1), arch(4, 16, 0), arch(1, 16, 0)}
	got := cacheFamilies(configs)
	want := [][]int{{3, 2, 0}, {1, 4}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cacheFamilies = %v, want %v", got, want)
	}
}

// TestTwinGraph pins which cells wait for which: within a family, a
// member waits for the earlier members it is a cache twin of. Without
// families (a sweep with a CellRunner) nothing waits.
func TestTwinGraph(t *testing.T) {
	arch := func(l1, l2 int) sim.Config {
		a := sim.BaselineArch()
		a.L1KB, a.L2MB = l1, l2
		return sim.Baseline(a)
	}
	configs := []sim.Config{arch(32, 1), arch(8, 1), arch(16, 2), arch(24, 1), arch(8, 0), arch(32, 0)}
	g := twinGraph(configs, cacheFamilies(configs))
	wantPreds := [][]int{{1}, nil, {1}, {1}, nil, {4}}
	wantSuccs := [][]int{nil, {2, 3, 0}, nil, nil, {5}, nil}
	if !reflect.DeepEqual(g.preds, wantPreds) || !reflect.DeepEqual(g.succs, wantSuccs) {
		t.Errorf("twinGraph = %+v, want preds %v succs %v", g, wantPreds, wantSuccs)
	}
	for pi, preds := range twinGraph(configs, nil).preds {
		if len(preds) > 0 {
			t.Errorf("point %d waits for %v without families", pi, preds)
		}
	}
}

// TestCellQueueOrder pins the order cells leave the queue in: point-major
// among the ready ones, a waiting cell once every cell it waits for is
// done.
func TestCellQueueOrder(t *testing.T) {
	g := twinDAG{
		preds: [][]int{nil, nil, {0}, nil},
		succs: [][]int{{2}, nil, nil, nil},
	}
	q := newCellQueue(g, 2)
	ctx := context.Background()
	var got [][2]int
	take := func() {
		pi, ai, ok := q.next(ctx)
		if !ok {
			t.Fatal("queue ended early")
		}
		got = append(got, [2]int{pi, ai})
	}
	for range 5 {
		take() // (0,0) (0,1) (1,0) (1,1) (3,0): point 2 waits for point 0
	}
	q.done(0, 1) // releases (2, 1) ahead of (3, 1)
	take()
	q.done(0, 0)
	take()
	take()
	want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {3, 0}, {2, 1}, {2, 0}, {3, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
	for _, c := range got[2:] {
		q.done(c[0], c[1])
	}
	if _, _, ok := q.next(ctx); ok {
		t.Error("queue handed out a cell after every cell was done")
	}
}

// TestCacheTwin pins the twin rule: same configuration but for the
// cache sizes, the L1 a whole multiple, the L2 no smaller, and L2
// presence the same.
func TestCacheTwin(t *testing.T) {
	cfg := func(l1, l2 int) sim.Config {
		a := sim.BaselineArch()
		a.L1KB, a.L2MB = l1, l2
		return sim.Baseline(a)
	}
	otherK := cfg(16, 1)
	otherK.K = 8
	cases := []struct {
		base, twin sim.Config
		want       bool
	}{
		{cfg(8, 1), cfg(8, 1), true},
		{cfg(8, 1), cfg(32, 4), true},
		{cfg(8, 0), cfg(16, 0), true},
		{cfg(16, 1), cfg(8, 1), false},  // smaller L1
		{cfg(16, 1), cfg(24, 1), false}, // not a multiple
		{cfg(8, 2), cfg(16, 1), false},  // smaller L2
		{cfg(8, 0), cfg(8, 1), false},   // L2 presence differs
		{cfg(8, 1), otherK, false},      // another field differs
	}
	for _, tc := range cases {
		if got := cacheTwin(tc.base, tc.twin); got != tc.want {
			t.Errorf("cacheTwin(%s, %s K=%d) = %v, want %v", tc.base.Arch, tc.twin.Arch, tc.twin.K, got, tc.want)
		}
	}
}
