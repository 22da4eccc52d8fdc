package design

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

func TestValidateRunRejectsBadOptions(t *testing.T) {
	cases := map[string]struct {
		scale  workload.Scale
		counts []int
	}{
		"zero scale":          {counts: []int{1}},
		"empty thread counts": {scale: workload.Tiny},
		"zero thread count":   {scale: workload.Tiny, counts: []int{0}},
		"negative thread":     {scale: workload.Tiny, counts: []int{-2}},
	}
	for name, tc := range cases {
		if err := ValidateRun(tc.scale, tc.counts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: error = %v, want ErrBadOptions", name, err)
		}
	}
	// A valid pair passes.
	if err := ValidateRun(workload.Tiny, []int{1}); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestBestThreadsErrorNamesWorkloadAndJoinsFailures(t *testing.T) {
	w := mustWorkload(t, "gzip")
	inst := w.Build(workload.Tiny)
	cfg := sim.Baseline(sim.BaselineArch())
	cfg.MaxCycles = 100 // every run deterministically exceeds this

	_, err := BestThreadsContext(context.Background(), cfg, inst, []int{1})
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, sim.ErrMaxCycles) {
		t.Errorf("per-count cause not joined: %v", err)
	}
	for _, want := range []string{"gzip", "threads=1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// No counts within the workload's thread limit: named, no join.
	_, err = BestThreadsContext(context.Background(), sim.Baseline(sim.BaselineArch()), inst, []int{16})
	if err == nil || !strings.Contains(err.Error(), "gzip") {
		t.Errorf("limit error does not name the workload: %v", err)
	}
}

func TestBestThreadsSurvivesPartialFailures(t *testing.T) {
	w := mustWorkload(t, "fft")
	inst := w.Build(workload.Tiny)
	arch := sim.BaselineArch()
	arch.Clusters = 4
	cfg := sim.Baseline(arch)
	// 1 thread succeeds; 1024 is over the instance's thread limit and is
	// skipped — the search must still return the viable count.
	br, err := BestThreadsContext(context.Background(), cfg, inst, []int{1, 1024})
	if err != nil {
		t.Fatal(err)
	}
	aipc, n := br.AIPC, br.Threads
	if n != 1 || aipc <= 0 {
		t.Errorf("best = (%v, %d)", aipc, n)
	}
}

func TestRunOnceContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := mustWorkload(t, "gzip")
	inst := w.Build(workload.Tiny)
	_, err := RunOnceContext(ctx, sim.Baseline(sim.BaselineArch()), inst, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestBestThreadsContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inst := mustWorkload(t, "gzip").Build(workload.Tiny)
	_, err := BestThreadsContext(ctx, sim.Baseline(sim.BaselineArch()), inst, []int{1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestBestThreadsCountsDrops: a thread count whose run fails is dropped
// from the search, and BestRun.Dropped counts it by its error. Each fft
// thread runs the whole kernel, so on the baseline machine fft/tiny takes
// longer at four threads than at one; a cycle cap between the two run
// lengths drops the four-thread run with ErrMaxCycles, and the search
// reports one thread.
func TestBestThreadsCountsDrops(t *testing.T) {
	inst := mustWorkload(t, "fft").Build(workload.Tiny)
	cfg := sim.Baseline(sim.BaselineArch())
	cycles := map[int]uint64{}
	for _, n := range []int{1, 4} {
		st, err := RunOnceContext(context.Background(), cfg, inst, n)
		if err != nil {
			t.Fatal(err)
		}
		cycles[n] = st.Cycles
	}
	if cycles[1] >= cycles[4] {
		t.Fatalf("fixture: t1 runs %d cycles, t4 %d; t1 must be shorter", cycles[1], cycles[4])
	}
	cfg.MaxCycles = (cycles[1] + cycles[4]) / 2
	br, err := BestThreadsContext(context.Background(), cfg, inst, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if br.Threads != 1 || br.Dropped != (Drops{MaxCycles: 1}) {
		t.Errorf("best %d threads, dropped %+v; want 1 thread and one ErrMaxCycles drop", br.Threads, br.Dropped)
	}
	if got := br.Dropped.String(); got != "1 ErrMaxCycles" {
		t.Errorf("Dropped.String() = %q", got)
	}
}
