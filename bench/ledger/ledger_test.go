package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestKeepFastestHalf(t *testing.T) {
	mk := func(walls ...int) []roundSample {
		var rs []roundSample
		for _, w := range walls {
			rs = append(rs, roundSample{wall: time.Duration(w) * time.Millisecond,
				ops: []opSample{{ms: float64(w), cycles: 1000}, {ms: float64(w) / 2, cycles: 1000}}})
		}
		return rs
	}
	// Five rounds keep ceil(5/2) = 3; the slow episode (250, 300) goes.
	kept := keepFastest(mk(100, 300, 110, 250, 90))
	if len(kept) != 3 || kept[0].wall != 90*time.Millisecond || kept[2].wall != 110*time.Millisecond {
		t.Fatalf("kept %v", kept)
	}
	ops, kc := throughput(kept)
	if want := 6 / 0.3; math.Abs(ops-want) > 1e-9 || math.Abs(kc-want) > 1e-9 {
		t.Errorf("ops/s = %v, kcycles/s = %v, want %v", ops, kc, want)
	}
	for n, want := range map[int]int{1: 1, 2: 1, 3: 2, 16: 8} {
		if got := len(keepFastest(make([]roundSample, n))); got != want {
			t.Errorf("%d rounds keep %d, want %d", n, got, want)
		}
	}
}

// TestSlowness pins what makes the reference times a scale and nothing
// else: a machine slower by one factor in both kernels reads that factor,
// and the ratio between two readings does not depend on the references.
func TestSlowness(t *testing.T) {
	ref := calibReading{compute: calibComputeRef, memory: calibMemoryRef}
	if got := ref.slowness(); math.Abs(got-1) > 1e-12 {
		t.Errorf("the reference machine reads %v", got)
	}
	twice := calibReading{compute: 2 * calibComputeRef, memory: 2 * calibMemoryRef}
	if got := twice.slowness(); math.Abs(got-2) > 1e-12 {
		t.Errorf("a machine twice as slow reads %v", got)
	}
	a := calibReading{compute: 20 * time.Millisecond, memory: 30 * time.Millisecond}
	b := calibReading{compute: 21 * time.Millisecond, memory: 48 * time.Millisecond}
	want := math.Sqrt(21.0/20) * math.Sqrt(48.0/30)
	if got := b.slowness() / a.slowness(); math.Abs(got-want) > 1e-12 {
		t.Errorf("ratio of two readings = %v, want %v", got, want)
	}
}

func TestPercentiles(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	if got := percentile(v, 0.50); got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(v, 0.90); got != 90 {
		t.Errorf("p90 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	// "At least ten samples beyond it": 100 samples support p90, not p95.
	if got := maxPercentile(100); got != 0.90 {
		t.Errorf("maxPercentile(100) = %v", got)
	}
	if got := maxPercentile(10); got != 0 {
		t.Errorf("maxPercentile(10) = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got, want := quartileSpread(v[:10]), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "op", start: msd(0), end: msd(100), parent: -1, op: 1},
		{name: "build", start: msd(5), end: msd(15), parent: 0, op: 1},
		{name: "run", start: msd(20), end: msd(90), parent: 0, op: 1},
		// Two overlapping children of run: covered once, 30..70.
		{name: "a", start: msd(30), end: msd(60), parent: 2, op: 1},
		{name: "b", start: msd(50), end: msd(70), parent: 2, op: 1},
		// A root of its own, and a span never closed.
		{name: "place", start: msd(100), end: msd(104), parent: -1, op: 1},
		{name: "open", start: msd(104), end: -1, parent: -1, op: 2},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"op": msd(20), "build": msd(10), "run": msd(30), "a": msd(30), "b": msd(20), "place": msd(4),
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an unclosed span has a self time")
	}
	total, n := totalTimes(spans)
	if total["run"] != msd(70) || n["run"] != 1 || n["open"] != 0 {
		t.Errorf("totals %v %v", total, n)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", -1, nilRec.newOp())) // the untraced path: no-ops
}

func TestScheduleFollowsSeed(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	hash := func(name string, seed int64) string {
		b, err := newBench(name, t.TempDir(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.plan(seed); err != nil {
			t.Fatal(err)
		}
		return b.check().scheduleHash
	}
	for _, name := range workloadNames {
		a, again, other := hash(name, 7), hash(name, 7), hash(name, 8)
		if a == "" || a != again {
			t.Errorf("%s: seed 7 gave schedules %q and %q", name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %q", name, a)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the root of the repository in
// step with the dictionary in metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench/ledger" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d characters)", i, w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	same := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: %+v, metrics.go has %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %q (%q): bad or repeated name or unit", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25)) {
				t.Errorf("%s %q: bound %v, metrics.go has %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// TestAcceptRatioClasses pins what separates sim_flow from sim_retry:
// how many of the tokens offered to the matching tables are accepted.
func TestAcceptRatioClasses(t *testing.T) {
	accept := func(t *testing.T, s simSpec) float64 {
		st, err := runSim(context.Background(), s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ratio(float64(st.Match.Inserts), float64(st.Match.Inserts+st.InputRejects))
	}
	t.Run("sim_flow", func(t *testing.T) {
		t.Parallel()
		for _, s := range simFlowCells {
			if a := accept(t, s); a < 0.25 {
				t.Errorf("cell %s accepts %.3f of its input attempts, want >= 0.25", s.id(), a)
			}
		}
	})
	t.Run("sim_retry", func(t *testing.T) {
		t.Parallel()
		for _, s := range simRetryCells {
			if a := accept(t, s); a > 0.10 {
				t.Errorf("cell %s accepts %.3f of its input attempts, want <= 0.10", s.id(), a)
			}
		}
	})
}

// TestSmoke runs one round of every workload end to end and checks that
// every metric of the dictionary comes out, nothing failed, and every
// result matched its pin and the reference interpreter. No time is
// checked, so the workloads run side by side.
func TestSmoke(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir()) // where the Chrome trace goes
	for _, name := range workloadNames {
		for _, trace := range []int{0, 1} {
			if trace == 1 && testing.Short() && name != "sim_flow" {
				continue // the probes of the other traced runs take several seconds each
			}
			t.Run(fmt.Sprint(name, "/trace", trace), func(t *testing.T) {
				t.Parallel()
				smoke(t, p, name, trace)
			})
		}
	}
}

func smoke(t *testing.T, p *pins, name string, trace int) {
	o := options{workload: name, seed: 3, rounds: 1, setups: 1, trace: trace}
	res, err := measure(context.Background(), o, t.TempDir(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 || res.attempted < 1 {
		t.Errorf("correct %v, %d of %d failed", res.correct, res.failed, res.attempted)
	}
	for _, d := range res.defs {
		v := res.values[d.name] // a layer the workload never enters reports 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", d.name, v)
		}
		if trace == 0 && v <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v)
		}
	}
	if trace == 1 {
		if _, err := os.Stat(tracePath(name)); err != nil {
			t.Errorf("no Chrome trace: %v", err)
		}
		if name == "serve_hot" && res.values["server.singleflight_sims_per_req"] != 0.5 {
			t.Errorf("%v simulations per cold request, want 0.5", res.values["server.singleflight_sims_per_req"])
		}
	}
}
