package explore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"wavescalar/internal/design"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

func testPoints(t *testing.T, n int) []design.Point {
	t.Helper()
	pts := design.Viable()
	if len(pts) < n {
		t.Fatalf("only %d viable points", len(pts))
	}
	return pts[:n]
}

func testApps(t testing.TB, names ...string) []workload.Workload {
	t.Helper()
	var out []workload.Workload
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func TestCellKeyDeterminismAndSensitivity(t *testing.T) {
	cfg := sim.Baseline(sim.BaselineArch())
	base := CellKey(cfg, "gzip", workload.Tiny, []int{1, 4})
	if base != CellKey(cfg, "gzip", workload.Tiny, []int{1, 4}) {
		t.Error("identical inputs produced different keys")
	}
	if len(base) != 32 {
		t.Errorf("key length = %d, want 32 hex chars", len(base))
	}

	perturbed := map[string]string{}
	k := cfg
	k.K = 8
	perturbed["microarch knob"] = CellKey(k, "gzip", workload.Tiny, []int{1, 4})
	a := cfg
	a.Arch.Clusters = 4
	perturbed["architecture"] = CellKey(a, "gzip", workload.Tiny, []int{1, 4})
	perturbed["workload"] = CellKey(cfg, "mcf", workload.Tiny, []int{1, 4})
	perturbed["scale"] = CellKey(cfg, "gzip", workload.Small, []int{1, 4})
	perturbed["thread counts"] = CellKey(cfg, "gzip", workload.Tiny, []int{1})
	for what, key := range perturbed {
		if key == base {
			t.Errorf("changing the %s did not change the key", what)
		}
	}

	// Tracing must NOT change the key: observability never changes a
	// deterministic run's results.
	tr := cfg
	tr.Trace = nil
	if CellKey(tr, "gzip", workload.Tiny, []int{1, 4}) != base {
		t.Error("trace recorder leaked into the cache key")
	}
}

// TestSweepCacheHitDeterminism is the cache-hit determinism test: a
// second sweep over the explorer's cache performs zero simulations and
// returns byte-identical results.
func TestSweepCacheHitDeterminism(t *testing.T) {
	points := testPoints(t, 2)
	apps := testApps(t, "gzip", "mcf")

	exp, err := New(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	p := exp.LastProgress()
	if p.Simulated != len(points)*len(apps) || p.CacheHits != 0 {
		t.Fatalf("first sweep: %d simulated, %d cached; want all simulated", p.Simulated, p.CacheHits)
	}

	got, err := exp.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	p = exp.LastProgress()
	if p.Simulated != 0 {
		t.Errorf("second sweep simulated %d cells, want 0 (all from cache)", p.Simulated)
	}
	if p.CacheHits != len(points)*len(apps) {
		t.Errorf("second sweep cache hits = %d, want %d", p.CacheHits, len(points)*len(apps))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached results differ from simulated results:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSweepConfigureOverride: a per-sweep thread-count override must
// change every cell key — the two sweeps own disjoint slices of the shared
// cache — and an equal override in another allocation is a pure cache hit.
func TestSweepConfigureOverride(t *testing.T) {
	points := testPoints(t, 2)
	apps := testApps(t, "gzip")

	exp, err := New(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.SweepWith(context.Background(), points, apps, SweepSpec{
		Scale: workload.Tiny, ThreadCounts: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
	base := exp.LastProgress()
	if base.Simulated != len(points) {
		t.Fatalf("baseline sweep simulated %d, want %d", base.Simulated, len(points))
	}

	wide, err := exp.SweepWith(context.Background(), points, apps, SweepSpec{
		Scale: workload.Tiny, ThreadCounts: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := exp.LastProgress()
	if p.CacheHits != 0 || p.Simulated != len(points) {
		t.Errorf("overridden sweep hit the baseline cache: %+v", p)
	}
	for _, r := range wide {
		if r.Err != nil {
			t.Errorf("overridden sweep point %s failed: %v", r.Arch, r.Err)
		}
	}

	if _, err := exp.SweepWith(context.Background(), points, apps, SweepSpec{
		Scale: workload.Tiny, ThreadCounts: []int{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.Simulated != 0 {
		t.Errorf("repeat overridden sweep simulated %d cells, want 0", p.Simulated)
	}
}

// TestJournalCrashResumeRoundTrip kills a sweep mid-flight by cancelling
// its context, restarts from the journal, and asserts the merged results
// equal an uninterrupted sweep — with the resumed run's simulated-cell
// count strictly smaller than the total cell count.
func TestJournalCrashResumeRoundTrip(t *testing.T) {
	points := testPoints(t, 2)
	apps := testApps(t, "gzip", "mcf")
	total := len(points) * len(apps)
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")

	// Ground truth: an uninterrupted sweep with no cache or journal.
	plain, err := New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted sweep: cancel as soon as half the cells are journaled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted, err := New(
		WithJournal(journal, false),
		WithParallelism(1),
		WithProgress(func(p Progress) {
			if p.Done >= total/2 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interrupted.Sweep(ctx, points, apps); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error = %v, want context.Canceled", err)
	}
	if err := interrupted.Close(); err != nil {
		t.Fatal(err)
	}
	ip := interrupted.LastProgress()
	if ip.Done == 0 || ip.Done >= total {
		t.Fatalf("interrupted sweep completed %d/%d cells; the test needs a partial run", ip.Done, total)
	}

	// Resume: replay the journal, simulate only the missing cells.
	resumed, err := New(WithJournal(journal, true))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Resumed() == 0 {
		t.Fatal("resume replayed no journal records")
	}
	got, err := resumed.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	rp := resumed.LastProgress()
	if rp.Simulated >= total {
		t.Errorf("resumed sweep simulated %d of %d cells; the journal skipped no work", rp.Simulated, total)
	}
	if rp.CacheHits == 0 {
		t.Error("resumed sweep had no cache hits")
	}
	if rp.CacheHits+rp.Simulated != total {
		t.Errorf("cache hits %d + simulated %d != total %d", rp.CacheHits, rp.Simulated, total)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed results differ from uninterrupted sweep:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestResumeSmoke is the CI smoke test: a tiny 2 points × 2 apps sweep,
// journaled, then resumed with zero additional simulation.
func TestResumeSmoke(t *testing.T) {
	points := testPoints(t, 2)
	apps := testApps(t, "gzip", "mcf")
	journal := filepath.Join(t.TempDir(), "smoke.jsonl")

	first, err := New(WithJournal(journal, false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := New(WithJournal(journal, true))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	got, err := second.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	if p := second.LastProgress(); p.Simulated != 0 {
		t.Errorf("resumed smoke sweep simulated %d cells, want 0", p.Simulated)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed smoke results differ")
	}
}

func TestFailedCellsAreCachedDeterministically(t *testing.T) {
	// An M that is not a whole number of sets: every run is refused.
	points := []design.Point{testPoints(t, 1)[0]}
	points[0].Arch.Match++
	apps := testApps(t, "gzip")

	exp, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "not divisible by associativity") {
		t.Fatalf("expected a refused configuration, got %v", res[0].Err)
	}
	if p := exp.LastProgress(); p.Failed != 1 {
		t.Errorf("Failed = %d, want 1", p.Failed)
	}

	res2, err := exp.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	if p := exp.LastProgress(); p.Simulated != 0 {
		t.Errorf("known-bad cell was re-simulated %d times", p.Simulated)
	}
	if res2[0].Err == nil || res2[0].Err.Error() != res[0].Err.Error() {
		t.Errorf("replayed failure differs: %v vs %v", res2[0].Err, res[0].Err)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	content := `{"kind":"cell","key":"abcd","app":"gzip","aipc":1.5,"threads":1}` + "\n" +
		`{"kind":"cell","key":"ef01","app":"mcf","ai` // torn mid-append
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := New(WithJournal(path, true))
	if err != nil {
		t.Fatalf("torn tail should be tolerated, got %v", err)
	}
	defer e.Close()
	if e.Resumed() != 1 {
		t.Errorf("Resumed() = %d, want 1 (the intact record)", e.Resumed())
	}
	if _, ok := e.cache.Cell("abcd"); !ok {
		t.Error("intact record not loaded")
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.jsonl")
	content := "not json at all\n" +
		`{"kind":"cell","key":"abcd","app":"gzip"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithJournal(path, true)); err == nil {
		t.Fatal("mid-file corruption should fail resume")
	}
}

func TestResumeWithMissingJournalIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.jsonl")
	e, err := New(WithJournal(path, true))
	if err != nil {
		t.Fatalf("resume with no journal yet should work: %v", err)
	}
	defer e.Close()
	if e.Resumed() != 0 {
		t.Errorf("Resumed() = %d, want 0", e.Resumed())
	}
}

func TestNewValidatesOptions(t *testing.T) {
	cases := map[string][]Option{
		"negative parallelism": {WithParallelism(-1)},
		"zero thread count":    {WithThreadCounts(0)},
		"empty thread counts":  {WithThreadCounts()},
		"degenerate scale":     {WithScale(workload.Scale{})},
		"empty journal path":   {WithJournal("", false)},
	}
	for name, opts := range cases {
		if _, err := New(opts...); !errors.Is(err, design.ErrBadOptions) {
			t.Errorf("%s: error = %v, want ErrBadOptions", name, err)
		}
	}
	// Zero parallelism means GOMAXPROCS, as the rejection's text says: a
	// sweep must get workers, not hang.
	if e, err := New(WithParallelism(0)); err != nil || e.parallelism != runtime.GOMAXPROCS(0) {
		t.Errorf("WithParallelism(0): explorer %+v, error %v; want GOMAXPROCS workers", e, err)
	}
}

// TestTuneCachesThroughJournal: a tuning is a loop over cells, so the
// journal resumes it at the cell it was interrupted in, not at the
// workload: cancel after the k sweep, reopen with resume, and only the u
// sweep simulates; reopen again and nothing does.
func TestTuneCachesThroughJournal(t *testing.T) {
	const kSteps = 6 // the paper's k schedule: 1, 2, 3, 4, 6, 8
	path := filepath.Join(t.TempDir(), "tune.jsonl")
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}

	plain, err := New()
	if err != nil {
		t.Fatal(err)
	}
	want, hit, err := plain.Tune(context.Background(), w, workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first tuning reported a cache hit")
	}
	steps := int(plain.Cache().Stats().Misses) // every step of a cold tuning misses
	if steps <= kSteps {
		t.Fatalf("uninterrupted tuning took %d cells, want the %d k steps and a u sweep", steps, kSteps)
	}

	// Interrupt: a cold step builds its workload once, so cancelling on the
	// build after the last k leaves exactly the k sweep journaled.
	first, err := New(WithJournal(path, false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	builds := 0
	interrupted := w
	interrupted.Build = func(sc workload.Scale) *workload.Instance {
		if builds++; builds > kSteps {
			cancel()
		}
		return w.Build(sc)
	}
	if _, _, err := first.Tune(ctx, interrupted, workload.Tiny); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted tuning: error = %v, want context.Canceled", err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := New(WithJournal(path, true))
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed() != kSteps {
		t.Errorf("resumed %d cells, want the %d of the k sweep", second.Resumed(), kSteps)
	}
	got, hit, err := second.Tune(context.Background(), w, workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("a tuning that still had its u sweep to run reported a full cache hit")
	}
	if st := second.Cache().Stats(); int(st.Hits) != kSteps || int(st.Misses) != steps-kSteps {
		t.Errorf("resumed tuning: %d hits, %d simulated; want %d and %d (the u sweep only)",
			st.Hits, st.Misses, kSteps, steps-kSteps)
	}
	if got != want {
		t.Errorf("resumed tuning %+v != uninterrupted %+v", got, want)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}

	third, err := New(WithJournal(path, true))
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	got, hit, err = third.Tune(context.Background(), w, workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || third.Cache().Stats().Misses != 0 {
		t.Errorf("journaled tuning was re-simulated: hit=%v, stats %+v", hit, third.Cache().Stats())
	}
	if got != want {
		t.Errorf("replayed tuning %+v != %+v", got, want)
	}
	// The journal is ordinary cell data: one cell per step.
	if n := len(third.Cache().Cells()); n != steps {
		t.Errorf("a tuning's journal yields %d cells, want %d", n, steps)
	}
}

// TestTuneRejectsBadScale: a degenerate scale fails with ErrBadOptions
// before anything is simulated or cached.
func TestTuneRejectsBadScale(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Tune(context.Background(), testApps(t, "gzip")[0], workload.Scale{}); !errors.Is(err, design.ErrBadOptions) {
		t.Errorf("zero scale: error = %v, want ErrBadOptions", err)
	}
	if st := e.Cache().Stats(); st.Misses != 0 || st.Cells != 0 {
		t.Errorf("a rejected tuning touched the cache: %+v", st)
	}
}

// TestTuneTable4Pinned pins wstune's whole table: every registered
// workload's k_opt and u_opt under the default schedule, as tuned before
// tunings ran as cells (the first 15 rows are results/table4_tuning.txt).
func TestTuneTable4Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes all 21 workloads")
	}
	want := []struct {
		app        string
		kOpt, uOpt int
	}{
		{"ammp", 2, 64}, {"art", 1, 8}, {"equake", 1, 64}, {"gzip", 1, 64}, {"mcf", 1, 16}, {"twolf", 1, 8},
		{"djpeg", 2, 64}, {"mpeg2encode", 1, 32}, {"rawdaudio", 1, 64},
		{"fft", 2, 2}, {"lu", 3, 16}, {"ocean", 1, 64}, {"radix", 1, 64}, {"raytrace", 1, 2}, {"water", 1, 64},
		{"conv-is-4x4x2", 1, 64}, {"conv-os-4x4x2", 1, 64}, {"conv-ws-4x4x2", 1, 64},
		{"gemm-as-4x4x4", 1, 64}, {"gemm-bs-4x4x4", 1, 64}, {"gemm-os-4x4x4", 1, 64},
	}
	apps := workload.All()
	if len(apps) != len(want) {
		t.Fatalf("%d registered workloads, table pins %d", len(apps), len(want))
	}
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range apps {
		tn, _, err := e.Tune(context.Background(), w, workload.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		row := want[i]
		if pinned := (design.Tuning{App: row.app, KOpt: row.kOpt, UOpt: row.uOpt, Ratio: float64(row.kOpt) / float64(row.uOpt)}); tn != pinned {
			t.Errorf("row %d: tuned %+v, pinned %+v", i, tn, pinned)
		}
	}
}

// TestTuneStepFailureIsCached: a step that fails deterministically is a
// cell like any other — the error names the workload and the step, and a
// second call gets it from the cache instead of simulating again.
func TestTuneStepFailureIsCached(t *testing.T) {
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	// An instance that admits no thread count fails every step.
	build := w.Build
	w.Build = func(sc workload.Scale) *workload.Instance {
		inst := *build(sc)
		inst.MaxThreads = 0
		return &inst
	}
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for call, wantHits := range []uint64{0, 1} {
		_, hit, err := e.Tune(context.Background(), w, workload.Tiny)
		if err == nil || hit {
			t.Fatalf("call %d: hit=%v error=%v, want a failure", call, hit, err)
		}
		for _, want := range []string{"gzip", "k=1", "limit of 0 threads"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("call %d: error %q does not mention %q", call, err, want)
			}
		}
		if st := e.Cache().Stats(); st.Misses != 1 || st.Hits != wantHits {
			t.Errorf("call %d: cache stats %+v, want 1 miss and %d hits", call, st, wantHits)
		}
	}
}

func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.Sweep(ctx, testPoints(t, 1), testApps(t, "gzip"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Errorf("cancelled sweep should mark unevaluated points failed: %+v", results)
	}
}
