// Scheduler-equivalence tests: the active-set scheduler must be
// observationally indistinguishable from the full-scan reference. The
// guarantee the rest of the repo relies on (result caching, golden
// digests, the paper's tables) is byte-identical Stats, checked here on
// every workload kernel.
package wavescalar_test

import (
	"reflect"
	"testing"

	"wavescalar"
	"wavescalar/internal/sim"
)

// runSched runs one kernel at tiny scale under the given scheduling mode.
func runSched(t *testing.T, name string, mode sim.SchedMode, threads int) *wavescalar.Stats {
	t.Helper()
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())
	cfg.Sched = mode
	st, err := runWorkload(cfg, name, wavescalar.ScaleTiny, threads)
	if err != nil {
		t.Fatalf("%s (sched=%d): %v", name, mode, err)
	}
	return st
}

// TestSchedulerEquivalence runs every registered kernel under both
// scheduling modes and requires identical Stats structs — not just AIPC,
// every counter: traffic by level and class, matching-table activity,
// store-buffer and cache counters, latency sums, stall counts.
func TestSchedulerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all kernels twice")
	}
	for _, w := range wavescalar.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			active := runSched(t, w.Name, sim.SchedActiveSet, 1)
			scan := runSched(t, w.Name, sim.SchedFullScan, 1)
			if !reflect.DeepEqual(active, scan) {
				t.Errorf("stats diverge between schedulers\nactive-set: %+v\nfull-scan:  %+v", active, scan)
			}
			if active.Digest() != scan.Digest() {
				t.Errorf("digest diverges: active-set %s != full-scan %s", active.Digest(), scan.Digest())
			}
		})
	}
}

// TestSchedulerEquivalenceMultithreaded repeats the check with thread-level
// parallelism on a multi-cluster machine for one kernel per suite, so the
// inter-cluster network and store-buffer arbitration paths are covered.
func TestSchedulerEquivalenceMultithreaded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster runs")
	}
	arch := wavescalar.BaselineArch()
	arch.Clusters = 4
	for _, name := range []string{"fft", "lu", "ocean"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := wavescalar.Baseline(arch)
			cfg.Sched = sim.SchedActiveSet
			active, err := runWorkload(cfg, name, wavescalar.ScaleTiny, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sched = sim.SchedFullScan
			scan, err := runWorkload(cfg, name, wavescalar.ScaleTiny, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(active, scan) {
				t.Errorf("stats diverge between schedulers\nactive-set: %+v\nfull-scan:  %+v", active, scan)
			}
			if active.Digest() != scan.Digest() {
				t.Errorf("digest diverges: active-set %s != full-scan %s", active.Digest(), scan.Digest())
			}
		})
	}
}
