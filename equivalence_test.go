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
	"wavescalar/internal/workload"
)

// runSched runs one kernel at tiny scale on cfg, under the full-scan
// reference scheduler when fullScan is set and the active set otherwise.
func runSched(t *testing.T, cfg sim.Config, name string, threads int, fullScan bool) *sim.Stats {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(workload.Tiny)
	build := sim.New
	if fullScan {
		build = sim.NewFullScan
	}
	p, err := build(cfg, inst.Prog, inst.Params(threads), sim.Memory(inst.Mem))
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run()
	if err != nil {
		t.Fatalf("%s (full scan %v): %v", name, fullScan, err)
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
			cfg := sim.Baseline(sim.BaselineArch())
			active := runSched(t, cfg, w.Name, 1, false)
			scan := runSched(t, cfg, w.Name, 1, true)
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
	arch := sim.BaselineArch()
	arch.Clusters = 4
	for _, name := range []string{"fft", "lu", "ocean"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.Baseline(arch)
			active := runSched(t, cfg, name, 2, false)
			scan := runSched(t, cfg, name, 2, true)
			if !reflect.DeepEqual(active, scan) {
				t.Errorf("stats diverge between schedulers\nactive-set: %+v\nfull-scan:  %+v", active, scan)
			}
			if active.Digest() != scan.Digest() {
				t.Errorf("digest diverges: active-set %s != full-scan %s", active.Digest(), scan.Digest())
			}
		})
	}
}
