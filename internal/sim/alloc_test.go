package sim

import (
	"runtime"
	"testing"

	"wavescalar/internal/workload"
)

// steadyProc builds app at the small scale on the baseline machine
// replicated to clusters clusters and runs it past startup, so every
// freelist is primed, every ring has reached its depth and tokens are in
// full flight.
func steadyProc(tb testing.TB, app string, clusters, threads int) (*Processor, uint64) {
	tb.Helper()
	p := buildOn(tb, app, workload.Small, clusters, threads, nil)
	p.inject()
	const warm = 5000
	for c := uint64(0); c < warm; c++ {
		p.tick(c)
	}
	return p, warm
}

// kRejects sums the matching tables' k-bound rejections so far.
func kRejects(p *Processor) uint64 {
	var n uint64
	for i := range p.pes {
		n += p.pes[i].mt.Stats().KRejects
	}
	return n
}

// steadyTicks is how many cycles TestSteadyStateAllocs measures.
const steadyTicks = 2000

// TestSteadyStateAllocs drives the simulator mid-run and bounds what its
// tick allocates, counted exactly (runtime.MemStats.Mallocs over the whole
// window, not testing.AllocsPerRun's mean rounded down to an integer).
// Freelists and recycled buffers cover the token path, the store buffers'
// wave turnover and the cache's coherence messages, MSHRs and directory
// entries, so what is left is growth: a store buffer spilling more waves,
// or the directory and the maps keyed by line or wave meeting keys they
// have not held before, than any earlier cycle did. fft has tokens flowing
// through matching tables, store buffers and the NoC; mcf is the
// reject-heavy case (some 30 rejected input attempts per instruction),
// where tokens churn between the input queue, the parked lists and the
// reinject list. fft on four clusters with four threads adds the grid,
// remote store-buffer requests and four store buffers turning waves over.
// The bounds sit above the counts measured, 12–17, 8–9 and 27 (maps hash
// with a random seed, so their growth varies by a few objects from run to
// run, and mcf read 13 with the whole module's tests running at once); what remains is queues doubling past a depth they had
// not reached and a few maps meeting keys they had not held. A store
// buffer's spilled waves share its one op slab and a machine's matching
// tables displace into one map, so neither grows per wave or per table.
func TestSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		app               string
		clusters, threads int
		max               uint64 // mallocs over steadyTicks cycles
	}{{"fft", 1, 1, 32}, {"mcf", 1, 1, 16}, {"fft", 4, 4, 40}} {
		p, c := steadyProc(t, tc.app, tc.clusters, tc.threads)
		before := kRejects(p)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for end := c + steadyTicks; c < end; c++ {
			p.tick(c)
		}
		runtime.ReadMemStats(&ms1)
		if n := ms1.Mallocs - ms0.Mallocs; n > tc.max {
			t.Errorf("%s on %d clusters, %d threads: %d steady-state ticks allocate %d objects, bound %d",
				tc.app, tc.clusters, tc.threads, steadyTicks, n, tc.max)
		}
		if parks := kRejects(p) - before; tc.app == "mcf" && parks < steadyTicks {
			t.Errorf("mcf: only %d tokens parked over the measured cycles; the fixture is not reject-heavy", parks)
		}
	}
}

// flowCellRunAllocBudget bounds the mallocs of the flow cell's run, from
// injection to quiescence. The count repeats within a few objects (1 029
// when this was written: some 160 of the NoC's queues growing, 220 of the
// caches', 250 of the store buffers' op slabs, wave rings, thread records
// and pending lists, 190 blocks of the machine's carvers, 50 of the
// matching tables' entry blocks and overflow map, and 130 token pools and
// queues doubling past their first buffers); one allocation for each PE
// the run writes to would add 480.
const flowCellRunAllocBudget = 1100

// TestRunAllocsDoNotScaleWithPEs runs the flow cell (gemm-as-4x4x4/tiny on
// sixteen clusters with sixteen threads) and bounds what the whole run
// allocates, construction left out. A PE's first queue buffers, token
// nodes and matching-table entries are cut from per-machine blocks, the
// store buffers link their waves' ops through one slab each and the
// matching tables displace into one map, so what a run allocates depends
// on the machine's kinds of structure and on how deep its queues grow, not
// on how many PEs it touches: the budget is less than the count plus the
// number of PEs written, so a per-PE allocation does not fit under it.
func TestRunAllocsDoNotScaleWithPEs(t *testing.T) {
	cfg, inst := flowCell(t)
	p, err := New(cfg, inst.Prog, inst.Params(16), Memory(inst.Mem))
	if err != nil {
		t.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	written := 0
	for i := range p.pes {
		if p.pes[i].mt.Stats().Inserts > 0 {
			written++
		}
	}
	n := ms1.Mallocs - ms0.Mallocs
	if n > flowCellRunAllocBudget {
		t.Errorf("the flow cell's run allocates %d objects, budget %d", n, flowCellRunAllocBudget)
	}
	if slack := flowCellRunAllocBudget - int(n); slack >= written {
		t.Errorf("the budget leaves room for %d more objects, one for each of the %d PEs written to; lower it toward %d", slack, written, n)
	}
	t.Logf("run: %d allocations, %d of %d PEs written to", n, written, len(p.pes))
}

// BenchmarkInputReject is the ledger's sim.ns_per_input_attempt under
// go test -bench: whole mcf/small runs (96 % of whose matching-table input
// attempts are rejected), timed from injection to quiescence, divided by
// the attempts made — tokens written plus tokens refused.
func BenchmarkInputReject(b *testing.B) {
	w, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	inst := w.Build(workload.Small)
	var attempts uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := New(Baseline(BaselineArch()), inst.Prog, inst.Params(1), Memory(inst.Mem))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		attempts += st.Match.Inserts + st.InputRejects
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
}

// BenchmarkSteadyStateTick measures the per-cycle cost of the active-set
// scheduler mid-run; -benchmem must report 0 allocs/op.
func BenchmarkSteadyStateTick(b *testing.B) {
	p, c := steadyProc(b, "fft", 1, 1)
	const limit = 150_000 // stay inside the run (fft/small is ~177k cycles)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c == limit {
			b.StopTimer()
			p, c = steadyProc(b, "fft", 1, 1)
			b.StartTimer()
		}
		p.tick(c)
		c++
	}
}

// BenchmarkFullScanTick is the same measurement under the reference
// scheduler, for comparing the two in one -bench run.
func BenchmarkFullScanTick(b *testing.B) {
	w, err := workload.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	inst := w.Build(workload.Small)
	build := func() (*Processor, uint64) {
		p, err := NewFullScan(Baseline(BaselineArch()), inst.Prog, inst.Params(1), Memory(inst.Mem))
		if err != nil {
			b.Fatal(err)
		}
		p.inject()
		const warm = 5000
		for c := uint64(0); c < warm; c++ {
			p.tick(c)
		}
		return p, warm
	}
	p, c := build()
	const limit = 150_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c == limit {
			b.StopTimer()
			p, c = build()
			b.StartTimer()
		}
		p.tick(c)
		c++
	}
}
