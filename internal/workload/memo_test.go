package workload

import (
	"crypto/sha256"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavescalar/internal/ref"
	"wavescalar/internal/sim"
)

// instanceDigest hashes everything a run reads from an instance: the
// program, the memory image and the parameter maps given.
func instanceDigest(t *testing.T, in *Instance, params []map[string]uint64) [32]byte {
	t.Helper()
	raw, err := json.Marshal(struct {
		Prog   any
		Mem    map[uint64]uint64
		Params []map[string]uint64
	}{in.Prog, in.Mem, params})
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(raw)
}

// TestSharedInstanceIsNotWritten: a simulation and a reference run leave
// the shared instance as they found it — its program, its image and the
// parameter maps they were handed (a single-threaded kernel hands out one
// map for every call, so those are shared too).
func TestSharedInstanceIsNotWritten(t *testing.T) {
	cfg := sim.Baseline(sim.BaselineArch())
	cfg.Arch.Clusters = 4
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			in := w.Build(Tiny)
			n := min(4, in.MaxThreads)
			params := in.Params(n)
			before := instanceDigest(t, in, params)
			proc, err := sim.New(cfg, in.Prog, params, sim.Memory(in.Mem))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := proc.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.RunThreads(in.Prog, in.Mem, params); err != nil {
				t.Fatal(err)
			}
			if instanceDigest(t, in, params) != before {
				t.Error("a run wrote into the instance or its parameter maps")
			}
			if instanceDigest(t, in, in.Params(n)) != before {
				t.Error("Params hands out different maps after the runs")
			}
		})
	}
}

// TestNamedScalesShareOneInstance: a named scale returns one instance on
// every call; any other scale builds a fresh one, so it never joins the
// memo.
func TestNamedScalesShareOneInstance(t *testing.T) {
	for _, w := range All() {
		if a, b := w.Build(Tiny), w.Build(Tiny); a != b {
			t.Errorf("%s: two builds at tiny returned two instances", w.Name)
		}
	}
	w, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if w.Build(Small) != w.Build(Small) {
		t.Error("mcf: two builds at small returned two instances")
	}
	adhoc := Scale{Iters: 1, Footprint: 1 << 10}
	if w.Build(adhoc) == w.Build(adhoc) {
		t.Error("mcf: an ad-hoc scale returned a shared instance")
	}
}

// TestConcurrentBuildsShareOne: eight goroutines that build one
// (workload, scale) at once get one instance from one build, and a build
// in progress holds up no other workload's.
func TestConcurrentBuildsShareOne(t *testing.T) {
	release := make(chan struct{})
	blocked := newWorkload("blocked", Spec, func(Scale) *Instance {
		<-release
		return &Instance{}
	})
	var calls atomic.Int32
	counted := newWorkload("counted", Spec, func(Scale) *Instance {
		calls.Add(1)
		return &Instance{}
	})

	go blocked.Build(Tiny)
	got := make([]*Instance, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = counted.Build(Tiny)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("builds of one workload waited on another's")
	}
	close(release)
	for i, in := range got {
		if in != got[0] {
			t.Errorf("goroutine %d got another instance", i)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d builds for one (workload, scale), want 1", n)
	}
}
