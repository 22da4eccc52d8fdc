package design

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

func TestEnumerateSize(t *testing.T) {
	n := len(Enumerate())
	// The paper: "over twenty-one thousand WaveScalar processor
	// configurations" from the Table 3 ranges.
	if n < 21_000 || n > 40_000 {
		t.Errorf("enumerated %d configurations, expected the paper's >21k regime", n)
	}
}

func TestViableProperties(t *testing.T) {
	pts := Viable()
	if len(pts) < 30 || len(pts) > 120 {
		t.Errorf("viable designs = %d, expected a few tens (paper: 41)", len(pts))
	}
	for _, p := range pts {
		a := p.Arch
		if p.Area > MaxDie {
			t.Errorf("%v exceeds die bound: %.1f", a, p.Area)
		}
		if a.Match != a.Virt {
			t.Errorf("%v violates virtualization ratio 1", a)
		}
		if a.Capacity() < 4096 {
			t.Errorf("%v below 4K capacity", a)
		}
		if a.PEs < 8 && a.Domains != 1 {
			t.Errorf("%v has small domains in a multi-domain cluster", a)
		}
		if a.Domains < 4 && a.Clusters != 1 {
			t.Errorf("%v has multiple clusters with small domains", a)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%v outside model ranges: %v", a, err)
		}
	}
	// Sorted by area.
	for i := 1; i < len(pts); i++ {
		if pts[i].Area < pts[i-1].Area {
			t.Fatal("viable points not sorted by area")
		}
	}
	// The sweep must include both one-cluster and 16-cluster machines
	// (the paper's frontier spans 39mm2 to 399mm2).
	haveC := map[int]bool{}
	for _, p := range pts {
		haveC[p.Arch.Clusters] = true
	}
	if !haveC[1] || !haveC[4] || !haveC[16] {
		t.Errorf("viable set misses cluster counts: %v", haveC)
	}
	if pts[0].Area > 60 || pts[len(pts)-1].Area < 300 {
		t.Errorf("viable area range [%.0f, %.0f] does not span the paper's 40-400",
			pts[0].Area, pts[len(pts)-1].Area)
	}
}

// Viable is computed once per process, but every caller (wspareto, wsarea,
// the daemon's subsample, the facade) owns what it gets back:
// sorting, truncating, appending to or overwriting one returned slice must
// not reach the next caller's.
func TestViableReturnsACopy(t *testing.T) {
	fresh := prune()
	if len(fresh) != 79 {
		t.Fatalf("Enumerate-and-prune keeps %d designs, want 79", len(fresh))
	}
	// Concurrent callers, as the daemon's handlers are; -race watches.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Viable()
			if !slices.Equal(got, fresh) {
				t.Error("Viable() differs from a fresh Enumerate-and-prune")
			}
			slices.Reverse(got)
			for i := range got {
				got[i] = Point{}
			}
			_ = append(got[:1], Point{Area: -1})
		}()
	}
	wg.Wait()
	if again := Viable(); !slices.Equal(again, fresh) {
		t.Fatal("mutating Viable() results changed the next call's")
	}
}

func TestParetoExtraction(t *testing.T) {
	evals := []Evaluated{
		{Point{Area: 10}, 1.0},
		{Point{Area: 20}, 0.9}, // dominated
		{Point{Area: 30}, 2.0},
		{Point{Area: 30.5}, 1.9}, // dominated
		{Point{Area: 40}, 3.0},
	}
	f := Pareto(evals)
	if len(f) != 3 {
		t.Fatalf("frontier size = %d, want 3", len(f))
	}
	wantAreas := []float64{10, 30, 40}
	for i, e := range f {
		if e.Area != wantAreas[i] {
			t.Errorf("frontier[%d].Area = %v, want %v", i, e.Area, wantAreas[i])
		}
	}
}

func TestParetoMonotone(t *testing.T) {
	f := Pareto([]Evaluated{
		{Point{Area: 5}, 2}, {Point{Area: 5}, 3}, {Point{Area: 7}, 3},
	})
	// Equal-area keeps the faster; equal-AIPC keeps the smaller.
	if len(f) != 1 || f[0].Area != 5 || f[0].AIPC != 3 {
		t.Errorf("frontier = %+v", f)
	}
}

func TestFrontierTable(t *testing.T) {
	rows := FrontierTable([]Evaluated{
		{Point{Area: 100}, 2.0},
		{Point{Area: 110}, 2.5},
	})
	if rows[0].AreaIncrease != 0 || rows[1].AreaIncrease != 10 {
		t.Errorf("area increases: %+v", rows)
	}
	if rows[1].AIPCIncrease != 25 {
		t.Errorf("aipc increase = %v, want 25", rows[1].AIPCIncrease)
	}
	if out := FormatFrontier(rows); len(out) == 0 {
		t.Error("empty format")
	}
}

func TestSweepSmall(t *testing.T) {
	pts := Viable()[:2]
	apps := []workload.Workload{mustWorkload(t, "gzip")}
	res := sweepDirect(t, pts, apps, []int{1})
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("sweep point %d failed: %v", i, r.Err)
		}
		if r.AIPC["gzip"] <= 0 {
			t.Errorf("point %d: AIPC %v", i, r.AIPC)
		}
		if r.Threads["gzip"] != 1 {
			t.Errorf("single-threaded app best threads = %d", r.Threads["gzip"])
		}
	}
	f := Frontier(res)
	if len(f) == 0 {
		t.Error("empty frontier")
	}
}

func TestBestThreadsPicksWinner(t *testing.T) {
	w := mustWorkload(t, "fft")
	inst := w.Build(workload.Tiny)
	arch := sim.BaselineArch()
	arch.Clusters = 4
	cfg := sim.Baseline(arch)
	br, err := BestThreadsContext(context.Background(), cfg, inst, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	aipc, n := br.AIPC, br.Threads
	if n != 4 {
		t.Errorf("best thread count = %d, want 4 on a 4-cluster machine", n)
	}
	if aipc <= 0 {
		t.Error("zero AIPC")
	}
}

// measureDirect is a Tune measure that simulates inst with one
// BestThreadsContext per step — what the explore engine's cell does,
// without the engine (which this package cannot import).
func measureDirect(inst *workload.Instance) func(sim.Config) (float64, error) {
	return func(cfg sim.Config) (float64, error) {
		br, err := BestThreadsContext(context.Background(), cfg, inst, []int{1})
		return br.AIPC, err
	}
}

func TestTuneGzip(t *testing.T) {
	tn, err := Tune("gzip", measureDirect(mustWorkload(t, "gzip").Build(workload.Tiny)))
	if err != nil {
		t.Fatal(err)
	}
	if tn.KOpt < 1 || tn.KOpt > 4 {
		t.Errorf("k_opt = %d", tn.KOpt)
	}
	if tn.UOpt < 1 || tn.UOpt > 64 {
		t.Errorf("u_opt = %d", tn.UOpt)
	}
	if tn.Ratio <= 0 || tn.Ratio > 4 {
		t.Errorf("ratio = %v", tn.Ratio)
	}
}

// TestTuneSelection drives the Table 4 selection rules with a synthetic
// measure over the paper's schedule: the smallest k within 5 % of the
// best, the last u before AIPC drops by more than 5 %, and step errors
// that name the workload and the step.
func TestTuneSelection(t *testing.T) {
	kAIPC := map[int]float64{1: 0.80, 2: 0.97, 3: 0.98, 4: 1.00, 6: 1.00, 8: 1.00}
	var measured []sim.Config
	measure := func(cfg sim.Config) (float64, error) {
		measured = append(measured, cfg)
		if cfg.Arch.Match == 4096 {
			return kAIPC[cfg.K], nil
		}
		if cfg.Arch.Match >= 256 { // M = 512/u: u = 1, 2 hold up; u = 4 drops
			return 0.97, nil
		}
		return 0.5, nil
	}
	tn, err := Tune("synthetic", measure)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Tuning{App: "synthetic", KOpt: 2, UOpt: 2, Ratio: 1}); tn != want {
		t.Errorf("tuning = %+v, want %+v", tn, want)
	}
	if len(measured) != 6+3 { // every k, then u = 1, 2 and the u = 4 that dropped
		t.Errorf("measured %d configurations, want 9", len(measured))
	}

	failing := func(cfg sim.Config) (float64, error) {
		if cfg.Arch.Match != 4096 {
			return 0, errors.New("boom")
		}
		return 1, nil
	}
	if _, err := Tune("synthetic", failing); err == nil || !strings.Contains(err.Error(), "synthetic at u=1: boom") {
		t.Errorf("step failure = %v, want one naming the workload and u=1", err)
	}
}

// sweepDirect evaluates every point on every app with one
// BestThreadsContext per cell at Tiny scale on the baseline
// microarchitecture — the rows Frontier and WriteCSV consume, produced
// without the explore engine (which this package cannot import).
func sweepDirect(t *testing.T, pts []Point, apps []workload.Workload, counts []int) []SweepResult {
	t.Helper()
	res := make([]SweepResult, len(pts))
	for pi, pt := range pts {
		r := SweepResult{Point: pt, AIPC: map[string]float64{}, Threads: map[string]int{}}
		for _, app := range apps {
			br, err := BestThreadsContext(context.Background(), sim.Baseline(pt.Arch), app.Build(workload.Tiny), counts)
			if err != nil {
				t.Fatalf("%s on %s: %v", app.Name, pt.Arch, err)
			}
			r.AIPC[app.Name], r.Threads[app.Name] = br.AIPC, br.Threads
			r.Mean += br.AIPC / float64(len(apps))
		}
		res[pi] = r
	}
	return res
}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWriteCSV(t *testing.T) {
	apps := []workload.Workload{mustWorkload(t, "gzip")}
	res := sweepDirect(t, Viable()[:2], apps, []int{1})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res, apps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows", len(lines))
	}
	if !strings.Contains(lines[0], "gzip_aipc") || !strings.Contains(lines[0], "area_mm2") {
		t.Errorf("header = %q", lines[0])
	}
}
