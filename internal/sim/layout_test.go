package sim

import (
	"errors"
	"maps"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/workload"
)

// buildOn builds app at a scale on the Table 1 machine replicated to
// clusters clusters, with the given thread count.
func buildOn(tb testing.TB, app string, sc workload.Scale, clusters, threads int, edit func(*Config)) *Processor {
	tb.Helper()
	w, err := workload.ByName(app)
	if err != nil {
		tb.Fatal(err)
	}
	inst := w.Build(sc)
	arch := BaselineArch()
	arch.Clusters = clusters
	cfg := Baseline(arch)
	if edit != nil {
		edit(&cfg)
	}
	p, err := New(cfg, inst.Prog, inst.Params(threads), Memory(inst.Mem))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestRunTwiceReturnsErrAlreadyRun checks that a Processor runs once and
// says so: a second Run is the caller's mistake, reported as ErrAlreadyRun
// and not — as it was when the parameter tokens were injected into the
// finished machine — as ErrInternal with a machine dump, and it leaves the
// first run's statistics, memory and halt values alone. Both a kernel with
// stores and a store-free loop (whose waves still carry a memory no-op)
// used to trip the store buffer.
func TestRunTwiceReturnsErrAlreadyRun(t *testing.T) {
	fft, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	inst := fft.Build(workload.Tiny)
	cases := []struct {
		name   string
		prog   *isa.Program
		params []map[string]uint64
		mem    Memory
	}{
		{"fft", inst.Prog, inst.Params(1), Memory(inst.Mem)},
		{"sumloop", sumLoopProg(), []map[string]uint64{{"n": 20}}, nil},
	}
	for _, c := range cases {
		p, err := New(smallCfg(), c.prog, c.params, c.mem)
		if err != nil {
			t.Fatalf("%s: New: %v", c.name, err)
		}
		st, err := p.Run()
		if err != nil {
			t.Fatalf("%s: first run: %v", c.name, err)
		}
		digest, halt, mem := st.Digest(), p.HaltValue(0), maps.Clone(p.Mem())

		again, err := p.Run()
		if !errors.Is(err, ErrAlreadyRun) || again != nil {
			t.Fatalf("%s: second run = (%v, %v), want ErrAlreadyRun", c.name, again, err)
		}
		if errors.Is(err, ErrInternal) || len(err.Error()) > 80 {
			t.Errorf("%s: second run reports a simulator fault or a dump: %v", c.name, err)
		}
		if st.Digest() != digest || p.HaltValue(0) != halt || !maps.Equal(p.Mem(), mem) {
			t.Errorf("%s: second run disturbed the first run's statistics, halt value or memory", c.name)
		}
	}
}

// TestUntouchedPEsAllocateNothing runs one thread on sixteen clusters: 480
// of the 512 PEs never receive a token, and each must end the run owning
// only what the machine's slabs gave it — no matching-table entries, no
// token pool, no queue buffers — while exactly the PEs whose tables were
// written to hold entries. A domain unit none of whose PEs was written to
// holds no ring buffers either: its NET and MEM pseudo-PEs only carry
// operands and requests to and from its own PEs.
func TestUntouchedPEsAllocateNothing(t *testing.T) {
	p := buildOn(t, "fft", workload.Tiny, 16, 1, nil)
	for i := range p.pes {
		if pe := &p.pes[i]; pe.mt.Allocated() || pe.toks.nodes != nil || pe.holdsRings() {
			t.Fatalf("PE %+v holds run-time buffers before the run", pe.addr)
		}
	}
	for i := range p.domains {
		if d := &p.domains[i]; d.holdsRings() {
			t.Fatalf("domain %d.%d holds ring buffers before the run", d.cluster, d.index)
		}
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	touched := 0
	domainWritten := make([]bool, len(p.domains))
	for i := range p.pes {
		pe := &p.pes[i]
		written := pe.mt.Stats().Inserts > 0
		if pe.mt.Allocated() != written {
			t.Errorf("PE %+v: table entries allocated = %v, tokens written = %d", pe.addr, pe.mt.Allocated(), pe.mt.Stats().Inserts)
		}
		if written {
			touched++
			domainWritten[i/p.cfg.Arch.PEs] = true
			continue
		}
		if pe.toks.nodes != nil || pe.holdsRings() {
			t.Errorf("PE %+v received no token but allocated a pool or a queue", pe.addr)
		}
	}
	if per := p.cfg.Arch.Domains * p.cfg.Arch.PEs; touched == 0 || touched > per {
		t.Errorf("%d PEs were written to; one thread should touch between 1 and one cluster's %d", touched, per)
	}
	for i := range p.domains {
		if d := &p.domains[i]; !domainWritten[i] && d.holdsRings() {
			t.Errorf("domain %d.%d: none of its PEs was written to, but it allocated a ring", d.cluster, d.index)
		}
	}
}

// holdsRings reports whether any of the PE's queues has a buffer.
func (pe *peUnit) holdsRings() bool {
	return pe.schedQ.buf != nil || pe.pending.buf != nil || pe.outQ.buf != nil || pe.outDests.buf != nil
}

// holdsRings reports whether any of the domain unit's queues has a buffer.
func (d *domainUnit) holdsRings() bool {
	return d.netOutQ.buf != nil || d.netInQ.buf != nil || d.memQ.buf != nil
}

// TestRouteMatchesPlacement checks the route table against the placement
// it stands in for on the token path: every instance's route names the PE
// the placement puts it on, the operand mask of its instruction and its
// rank among the instances bound there.
func TestRouteMatchesPlacement(t *testing.T) {
	p := buildOn(t, "fft", workload.Tiny, 1, 2, nil)
	nInst := len(p.prog.Insts)
	bound := make([]int32, len(p.pes))
	for k := range p.route {
		gi := int32(p.peIndex(p.placement.Loc(uint32(k/nInst), isa.InstID(k%nInst))))
		want := route{pe: gi, li: bound[gi], req: requiredMask(&p.prog.Insts[k%nInst])}
		bound[gi]++
		if p.route[k] != want {
			t.Fatalf("thread %d inst %d: route %+v, want %+v", k/nInst, k%nInst, p.route[k], want)
		}
	}
	for i := range p.pes {
		if int(bound[i]) != p.pes[i].ist.Bound() {
			t.Errorf("PE %+v has %d bound, the routes name %d", p.pes[i].addr, p.pes[i].ist.Bound(), bound[i])
		}
	}
}

// flowCell is the ledger's heaviest sim_flow op, gemm-as-4x4x4/tiny on
// sixteen clusters (512 PEs), run with sixteen threads: the machine and the
// built workload, for the callers that construct it many times.
func flowCell(tb testing.TB) (Config, *workload.Instance) {
	tb.Helper()
	w, err := workload.ByName("gemm-as-4x4x4")
	if err != nil {
		tb.Fatal(err)
	}
	arch := BaselineArch()
	arch.Clusters = 16
	return Baseline(arch), w.Build(workload.Tiny)
}

// flowCellAllocBudget bounds the mallocs of sim.New for the flow cell's
// machine. The count repeats exactly (248 when this was written: the slabs,
// the grid, the caches, sixteen store buffers and the functional memory);
// the headroom is for Go releases and the race detector, and stops short of
// the machine's 512 PEs, so no per-PE allocation fits under it.
const flowCellAllocBudget = 400

// TestConstructAllocBudget pins what the layout costs to build: the sixteen
// cluster, sixteen-thread machine of BenchmarkFlowCell, 512 PEs and 64
// domain units, must come from a number of allocations that does not grow
// with its PE count.
func TestConstructAllocBudget(t *testing.T) {
	cfg, inst := flowCell(t)
	params, mem := inst.Params(16), Memory(inst.Mem)
	per := testing.AllocsPerRun(5, func() {
		if _, err := New(cfg, inst.Prog, params, mem); err != nil {
			t.Fatal(err)
		}
	})
	if per > flowCellAllocBudget {
		t.Errorf("sim.New on 16 clusters x 16 threads allocates %.0f objects, budget %d", per, flowCellAllocBudget)
	}
	t.Logf("sim.New: %.0f allocations for %d PEs", per, 16*cfg.Arch.Domains*cfg.Arch.PEs)
}

// BenchmarkFlowCell is the micro twin of the ledger's heaviest sim_flow op:
// gemm-as-4x4x4/tiny on sixteen clusters with sixteen threads, from sim.New
// to quiescence. It reports host time per simulated instruction, and with
// ReportAllocs the mallocs of one whole cell, construction included.
func BenchmarkFlowCell(b *testing.B) {
	cfg, inst := flowCell(b)
	params, mem := inst.Params(16), Memory(inst.Mem)
	var dynamic uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(cfg, inst.Prog, params, mem)
		if err != nil {
			b.Fatal(err)
		}
		st, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		dynamic += st.Dynamic
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dynamic), "ns/inst")
}

// BenchmarkRetryCell is a sim_retry cell in go test -bench: radix/small on
// the baseline machine, from sim.New to quiescence. Its matching tables
// refuse over thirty input attempts per instruction, most of them tokens of
// released herds that park again, so host time here is the INPUT stage's
// herd settling. It reports host time per simulated instruction and, with
// ReportAllocs, the mallocs of one whole cell.
func BenchmarkRetryCell(b *testing.B) {
	w, err := workload.ByName("radix")
	if err != nil {
		b.Fatal(err)
	}
	inst := w.Build(workload.Small)
	cfg, params, mem := Baseline(BaselineArch()), inst.Params(1), Memory(inst.Mem)
	var dynamic uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(cfg, inst.Prog, params, mem)
		if err != nil {
			b.Fatal(err)
		}
		st, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		dynamic += st.Dynamic
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dynamic), "ns/inst")
}
