package workload

import (
	"reflect"
	"testing"
)

// TestBuildDeterminism: building the same workload twice yields identical
// programs and memory images — required for reproducible sweeps. The
// second build is a fresh one, not the shared instance Build keeps.
func TestBuildDeterminism(t *testing.T) {
	for _, w := range All() {
		a := w.Build(Tiny)
		b := w.build(Tiny)
		if !reflect.DeepEqual(a.Prog, b.Prog) {
			t.Errorf("%s: programs differ between builds", w.Name)
		}
		if !reflect.DeepEqual(a.Mem, b.Mem) {
			t.Errorf("%s: memory images differ between builds", w.Name)
		}
		if !reflect.DeepEqual(a.Params(1), b.Params(1)) {
			t.Errorf("%s: params differ between builds", w.Name)
		}
	}
}

// TestStaticSizesInRegime: the kernels must be big enough that machine
// capacity parameters matter (the paper's applications bind thousands of
// instructions) but small enough to place on a single cluster with
// moderate chunking.
func TestStaticSizesInRegime(t *testing.T) {
	for _, w := range All() {
		inst := w.Build(Tiny)
		n := inst.Prog.NumStatic()
		if n < 40 || n > 600 {
			t.Errorf("%s: %d static instructions outside the intended 40..600", w.Name, n)
		}
		// Countable fraction: overhead must not dominate.
		c := inst.Prog.CountableStatic()
		if frac := float64(c) / float64(n); frac < 0.3 {
			t.Errorf("%s: only %.0f%% of static instructions are countable", w.Name, frac*100)
		}
	}
}

// TestSuiteCharacters checks each suite exhibits its defining property
// at the instance level.
func TestSuiteCharacters(t *testing.T) {
	// mcf must have a working set far larger than the other Spec kernels
	// (its defining, memory-bound property).
	mcf, _ := ByName("mcf")
	gzip, _ := ByName("gzip")
	if len(mcf.Build(Small).Mem) <= len(gzip.Build(Small).Mem) {
		t.Error("mcf's arena should dwarf gzip's tables")
	}
	// Splash kernels expose 64-thread parameters with disjoint regions.
	fft, _ := ByName("fft")
	inst := fft.Build(Tiny)
	ps := inst.Params(MaxSplashThreads)
	seen := map[uint64]bool{}
	for _, p := range ps {
		if seen[p["base"]] {
			t.Fatal("two threads share a private region")
		}
		seen[p["base"]] = true
	}
}
