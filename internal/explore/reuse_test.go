package explore

import (
	"bytes"
	"context"
	"encoding/json"
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
// with and without a memory drop/delay fault script; and a thinned sweep
// cell by cell against RunOne (subsampleReuseMatchesRunOne). Each sweep's
// reuse count is pinned exactly: a cell must copy every thread count that
// some earlier member of its cache family has an exact run for.
func TestSweepReuseMatchesDirect(t *testing.T) {
	points := design.Viable()
	memFaults := &fault.Script{Seed: 31, MemDropRate: 0.02, MemDelayRate: 0.05}
	cases := []struct {
		name   string
		apps   []string
		counts []int
		fault  *fault.Script
		reused int
	}{
		{"mcf+djpeg", []string{"mcf", "djpeg"}, []int{1}, nil, 114},
		{"fft", []string{"fft"}, []int{1, 4}, nil, 58},
		{"mcf+djpeg/mem-faults", []string{"mcf", "djpeg"}, []int{1}, memFaults, 114},
		{"fft/mem-faults", []string{"fft"}, []int{1, 4}, memFaults, 58},
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
	t.Run("spec2000/subsample-16", func(t *testing.T) { subsampleReuseMatchesRunOne(t, 16, 49) })
	t.Run("spec2000/subsample-20", func(t *testing.T) { subsampleReuseMatchesRunOne(t, 20, 71) })
}

// subsampleReuseMatchesRunOne sweeps a thinned sample, the points
// design.Subsample keeps of maxPoints, with spec2000 at tiny scale: there the
// smallest L2 of a cache family is often missing, so much of the reuse
// copies a run to a twin with a smaller L2 than its base's, and the
// sample mixes L2:0MB points with their twins that have an L2, so some of
// it copies a run across that line. Every cell, the reused ones among
// them, must encode to the same journal record as RunOne's on a fresh
// explorer, and exactly `reused` cells must be copied, no more and no
// fewer (49 of 96 cells at 16 points, 71 of 120 at 20).
func subsampleReuseMatchesRunOne(t *testing.T, maxPoints, reused int) {
	points := design.Subsample(design.Viable(), maxPoints)
	apps := workload.BySuite(workload.Spec)
	counts := []int{1}
	ctx := context.Background()
	exp, err := New(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.SweepWith(ctx, points, apps, SweepSpec{Scale: workload.Tiny, ThreadCounts: counts}); err != nil {
		t.Fatal(err)
	}
	p := exp.LastProgress()
	if p.Simulated != len(points)*len(apps) || p.Reused != reused {
		t.Fatalf("%d cells produced of which %d reused; want %d of %d",
			p.Simulated, p.Reused, reused, len(points)*len(apps))
	}
	direct, err := New(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		cfg := sim.Baseline(pt.Arch)
		for _, w := range apps {
			want, _, err := direct.RunOne(ctx, cfg, w, workload.Tiny, counts)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := exp.Cache().Cell(want.Key)
			if !ok {
				t.Errorf("%s on %s: no cell", w.Name, pt.Arch)
				continue
			}
			g, _ := json.Marshal(cellRecord(got))
			d, _ := json.Marshal(cellRecord(want))
			if !bytes.Equal(g, d) {
				t.Errorf("%s on %s: swept cell differs from RunOne's:\ngot  %s\nwant %s", w.Name, pt.Arch, g, d)
			}
		}
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

// TestReuseNeedsALocalBase pins which cells may serve as a base: only one
// the same sweep simulated itself. djpeg at tiny scale runs eviction-free
// on the 8 KB member, so a fresh sweep copies the twin; but when the 8 KB
// cell is a cache hit there are no per-count runs to copy and the twin is
// simulated.
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
}

// TestCacheFamilies pins the grouping and the chain order: families split
// by everything but the cache sizes, with an L2 or without, in the order
// of their first point, members by ascending (L1, L2), no L2 first. A
// point that differs in a field outside the cache (K here, or the cluster
// count) is in another family, so no run is copied to it.
func TestCacheFamilies(t *testing.T) {
	arch := func(clusters, l1, l2 int) sim.Config {
		a := sim.BaselineArch()
		a.Clusters, a.L1KB, a.L2MB = clusters, l1, l2
		return sim.Baseline(a)
	}
	otherK := arch(1, 16, 1)
	otherK.K = 8
	configs := []sim.Config{arch(1, 32, 1), arch(4, 8, 0), arch(1, 8, 4), arch(1, 8, 1), arch(4, 16, 0), arch(1, 16, 0), arch(1, 8, 0), otherK}
	got := cacheFamilies(configs)
	want := [][]int{{6, 3, 2, 5, 0}, {1, 4}, {7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cacheFamilies = %v, want %v", got, want)
	}
}

// TestViableFamiliesAreChains pins the premise of the sweep's schedule:
// in every cache family of the viable points, each member's L1 is a
// multiple of every earlier member's (all are 8, 16 or 32 KB). So a cell
// that waits for its family predecessor, and through it for every earlier
// member, waits only for cells whose runs it could copy, and becomes
// ready when the last of them is done.
func TestViableFamiliesAreChains(t *testing.T) {
	var configs []sim.Config
	for _, pt := range design.Viable() {
		configs = append(configs, sim.Baseline(pt.Arch))
	}
	families := cacheFamilies(configs)
	long := 0
	for _, family := range families {
		for i, pi := range family {
			for _, bi := range family[:i] {
				if l1, twinL1 := configs[bi].Arch.L1KB, configs[pi].Arch.L1KB; twinL1%l1 != 0 {
					t.Errorf("%s follows %s in its family, but its L1 is not a multiple", configs[pi].Arch, configs[bi].Arch)
				}
			}
		}
		if len(family) > 1 {
			long++
		}
	}
	if long == 0 {
		t.Fatalf("no viable cache family has two members (%d families of %d points)", len(families), len(configs))
	}
}

// TestCellQueueOrder pins the order cells leave the queue in: point-major
// among the ready ones, a waiting cell once the cell it waits for is done.
func TestCellQueueOrder(t *testing.T) {
	q := newCellQueue([]int{2, -1, -1, -1}, 2)
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

// BenchmarkSweepSubsample is a cold thinned sweep, spec2000 at tiny scale
// on the points design.Subsample keeps of sixteen, two workers: the shape
// of wspareto -max and /v1/sweeps max_points, where cache-family reuse
// decides how much is simulated. sims/op counts the cells simulated rather
// than copied from a cache twin.
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
		sims += p.Simulated - p.Reused
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}
