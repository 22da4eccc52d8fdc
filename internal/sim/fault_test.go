package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/graph"
	"wavescalar/internal/isa"
	"wavescalar/internal/place"
	"wavescalar/internal/workload"
)

// simShape mirrors the shape New derives for a configuration.
func simShape(cfg Config) fault.Shape { return FaultShape(cfg) }

func runFault(t *testing.T, cfg Config, params []map[string]uint64, seed map[uint64]uint64) (*Stats, *Processor, error) {
	t.Helper()
	proc, err := New(cfg, memLoopProg(), params, Memory(seed))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := proc.Run()
	return st, proc, err
}

func memParams(n int) ([]map[string]uint64, map[uint64]uint64) {
	params := []map[string]uint64{{"n": uint64(n), "base": 0x1000}}
	seed := map[uint64]uint64{}
	for i := uint64(0); i < uint64(n); i++ {
		seed[0x1000+i*8] = i * 7
	}
	return params, seed
}

func checkMem(t *testing.T, proc *Processor, n int) {
	t.Helper()
	for i := uint64(0); i < uint64(n); i++ {
		want := i*7 + 1
		if got := proc.Mem()[0x1000+i*8+4096]; got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// An empty (but non-nil) fault script must leave the run bit-identical
// to a faultless one: the nil-injector fast path.
func TestEmptyScriptIdenticalToBaseline(t *testing.T) {
	params, seed := memParams(16)
	clean, _, err := runFault(t, smallCfg(), params, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.Fault = &fault.Script{}
	empty, _, err := runFault(t, cfg, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, empty) {
		t.Errorf("empty fault script changed stats:\nclean: %+v\nempty: %+v", clean, empty)
	}
}

// The same (config, workload, script, seed) must reproduce every
// statistic exactly, including the fault report.
func TestFaultDeterminism(t *testing.T) {
	cfg := smallCfg()
	cfg.Fault = &fault.Script{
		Seed:         7,
		LinkFlipRate: 0.05, MemDropRate: 0.05, MemDelayRate: 0.1, SBDelayRate: 0.1,
		Events: []fault.Event{{Cycle: 150, Kind: fault.KindKillPE, Domain: 1, PE: 3}},
	}
	params, seed := memParams(24)
	a, procA, err := runFault(t, cfg, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, procB, err := runFault(t, cfg, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault run not deterministic:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	checkMem(t, procA, 24)
	checkMem(t, procB, 24)
}

// Killing PEs mid-run degrades the machine but the program still
// completes with correct results.
func TestKillPEsCompletesCorrectly(t *testing.T) {
	cfg := smallCfg()
	cfg.Fault = &fault.Script{
		Seed: 1,
		Events: []fault.Event{
			{Cycle: 100, Kind: fault.KindKillPE, Domain: 0, PE: 0},
			{Cycle: 100, Kind: fault.KindKillPE, Domain: 0, PE: 1},
			{Cycle: 300, Kind: fault.KindKillDomain, Domain: 2},
		},
	}
	params, seed := memParams(32)
	st, proc, err := runFault(t, cfg, params, seed)
	if err != nil {
		t.Fatalf("run with kills failed: %v", err)
	}
	checkMem(t, proc, 32)
	if got := proc.HaltValue(0); got != 32 {
		t.Errorf("halt value = %d, want 32", got)
	}
	if st.Fault.PEsKilled != 2+cfg.Arch.PEs {
		t.Errorf("PEsKilled = %d, want %d", st.Fault.PEsKilled, 2+cfg.Arch.PEs)
	}
	if st.Fault.InstsMigrated == 0 {
		t.Error("no instructions migrated off dead PEs")
	}
}

// Transient link flips and memory drops/delays slow the machine down but
// never lose work.
func TestTransientFaultsCompleteCorrectly(t *testing.T) {
	cfg := smallCfg()
	cfg.Arch.Clusters = 4 // inter-cluster traffic exercises the link faults
	cfg.Fault = &fault.Script{
		Seed:         99,
		LinkFlipRate: 0.1, MemDropRate: 0.1, MemDelayRate: 0.2, SBDelayRate: 0.2,
	}
	p := memLoopProg()
	params := []map[string]uint64{
		{"n": 16, "base": 0x1000},
		{"n": 16, "base": 0x9000},
	}
	proc, err := New(cfg, p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatalf("run with transient faults failed: %v", err)
	}
	if st.Fault.MemDrops == 0 || st.Fault.MemRetries == 0 {
		t.Errorf("drop rate 0.1 produced drops=%d retries=%d",
			st.Fault.MemDrops, st.Fault.MemRetries)
	}
	if st.Fault.MemDelays == 0 || st.Fault.SBDelays == 0 {
		t.Errorf("delay rates produced mem=%d sb=%d", st.Fault.MemDelays, st.Fault.SBDelays)
	}
}

// A permanent link failure forces reroutes but traffic still flows.
func TestLinkDownRerouteCompletes(t *testing.T) {
	cfg := smallCfg()
	cfg.Arch.Clusters = 4 // 2x2 grid
	cfg.Fault = &fault.Script{
		Seed:   5,
		Events: []fault.Event{{Cycle: 50, Kind: fault.KindLinkDown, LinkA: 0, LinkB: 1}},
	}
	p := memLoopProg()
	params := []map[string]uint64{
		{"n": 16, "base": 0x1000},
		{"n": 16, "base": 0x9000},
		{"n": 16, "base": 0x11000},
		{"n": 16, "base": 0x19000},
	}
	proc, err := New(cfg, p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatalf("run with dead link failed: %v", err)
	}
	if st.Fault.LinksDown != 1 {
		t.Errorf("LinksDown = %d, want 1", st.Fault.LinksDown)
	}
	if st.Noc.LinksDown != 1 {
		t.Errorf("grid LinksDown = %d, want 1", st.Noc.LinksDown)
	}
}

// Dropping every response past the retry budget surfaces ErrMemFault,
// not a deadlock or a panic.
func TestMemFaultExhaustsRetries(t *testing.T) {
	cfg := smallCfg()
	cfg.Fault = &fault.Script{Seed: 2, MemDropRate: 1, MemRetryLimit: 3}
	params, seed := memParams(8)
	_, _, err := runFault(t, cfg, params, seed)
	if !errors.Is(err, ErrMemFault) {
		t.Fatalf("err = %v, want ErrMemFault", err)
	}
}

// Killing every PE leaves nothing to remap onto: the run fails with
// ErrFaultStall (carrying the report), never ErrDeadlock.
func TestKillAllPEsFaultStall(t *testing.T) {
	cfg := smallCfg()
	cfg.Fault = &fault.Script{
		Seed:   3,
		Events: []fault.Event{{Cycle: 50, Kind: fault.KindKillCluster, Cluster: 0}},
	}
	params, seed := memParams(16)
	_, _, err := runFault(t, cfg, params, seed)
	if !errors.Is(err, ErrFaultStall) {
		t.Fatalf("err = %v, want ErrFaultStall", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatal("all-PE kill misdiagnosed as program deadlock")
	}
}

// An unknown memory completion latches ErrBadCompletion instead of
// panicking, and so does a second completion of a request that was in
// flight: the first is delivered, the second is unknown.
func TestBadCompletionLatchesError(t *testing.T) {
	proc, err := New(smallCfg(), memLoopProg(), []map[string]uint64{{"n": 1, "base": 0x1000}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc.cacheDone(10, 0, 12345)
	if !errors.Is(proc.fatalErr, ErrBadCompletion) {
		t.Fatalf("fatalErr = %v, want ErrBadCompletion", proc.fatalErr)
	}

	proc, err = New(smallCfg(), memLoopProg(), []map[string]uint64{{"n": 4, "base": 0x1000}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc.inject()
	c := uint64(0)
	for ; proc.inflight.len() == 0; c++ {
		if c == 10_000 {
			t.Fatal("no memory request issued in 10000 cycles")
		}
		proc.tick(c)
	}
	proc.cacheDone(c, 0, 0) // request ids start at 0
	if proc.fatalErr != nil {
		t.Fatalf("completing the request in flight: %v", proc.fatalErr)
	}
	proc.cacheDone(c, 0, 0)
	if !errors.Is(proc.fatalErr, ErrBadCompletion) {
		t.Fatalf("second completion of request 0: fatalErr = %v, want ErrBadCompletion", proc.fatalErr)
	}
}

// A residual panic inside the core is recovered and surfaced as
// ErrInternal with a cycle-stamped dump, not a process crash.
func TestRunRecoversPanic(t *testing.T) {
	proc, err := New(smallCfg(), memLoopProg(), []map[string]uint64{{"n": 4, "base": 0x1000}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc.pes[0].ist = nil // sabotage: the PE's first dispatch nil-derefs
	_, err = proc.Run()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
}

// wideLoopProg builds a loop whose body is `width` independent adds
// reduced by a tree: high ILP, so throughput is bound by alive-PE
// dispatch bandwidth and killing tiles must cost performance. (Narrow
// dependent chains can speed up under kills: consolidating a chain onto
// fewer PEs improves pod-bypass locality.)
func wideLoopProg(width int) *isa.Program {
	b := graph.New("wide")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	acc0 := b.Const(n, 0)
	l := b.Loop(i0, acc0, b.Nop(n))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)
	vs := []graph.Value{}
	for j := 0; j < width; j++ {
		vs = append(vs, b.AddI(i, uint64(j)))
	}
	for len(vs) > 1 {
		nv := []graph.Value{}
		for k := 0; k+1 < len(vs); k += 2 {
			nv = append(nv, b.Add(vs[k], vs[k+1]))
		}
		if len(vs)%2 == 1 {
			nv = append(nv, vs[len(vs)-1])
		}
		vs = nv
	}
	acc1 := b.Add(acc, vs[0])
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, acc1, nn)
	b.Halt(out[1])
	return b.MustFinish()
}

// The acceptance headline: on the default design, retained IPC is
// monotonically non-increasing as the killed fraction grows through
// {0%, 5%, 10%, 25%}, and no run up to 25% dead deadlocks. The kill
// sets are nested (same seed), so each step strictly removes resources.
func TestDegradationMonotone(t *testing.T) {
	fractions := []float64{0, 0.05, 0.10, 0.25}
	params := make([]map[string]uint64, 8)
	for i := range params {
		params[i] = map[string]uint64{"n": 40}
	}
	p := wideLoopProg(48)
	aipc := make([]float64, len(fractions))
	for i, f := range fractions {
		cfg := smallCfg()
		script, err := fault.KillFractionScript(simShape(cfg), f, 42, 200)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fault = script
		proc, err := New(cfg, p, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := proc.Run()
		if err != nil {
			if errors.Is(err, ErrDeadlock) {
				t.Fatalf("fraction %.2f: misdiagnosed as deadlock: %v", f, err)
			}
			t.Fatalf("fraction %.2f: %v", f, err)
		}
		// Per iteration i the body sums (i+j) for j in [0,48):
		// 48i + 1128; accumulated over i in [0,40).
		const want = 48*(39*40/2) + 40*1128
		for th := uint32(0); th < uint32(len(params)); th++ {
			if got := proc.HaltValue(th); got != want {
				t.Fatalf("fraction %.2f thread %d sum = %d, want %d", f, th, got, want)
			}
		}
		aipc[i] = st.AIPC()
		wantDead := int(math.Round(f * float64(simShape(cfg).TotalPEs())))
		if st.Fault.PEsKilled != wantDead {
			t.Errorf("fraction %.2f killed %d PEs, want %d", f, st.Fault.PEsKilled, wantDead)
		}
	}
	for i := 1; i < len(aipc); i++ {
		if aipc[i] > aipc[i-1] {
			t.Errorf("degradation not monotone: AIPC %.4f at %.0f%% dead > %.4f at %.0f%% dead",
				aipc[i], 100*fractions[i], aipc[i-1], 100*fractions[i-1])
		}
	}
	if aipc[len(aipc)-1] >= aipc[0] {
		t.Errorf("25%% dead should cost performance: %.4f vs clean %.4f", aipc[len(aipc)-1], aipc[0])
	}
}

// scoutParked runs a fault-free copy of cfg cycle by cycle and returns the
// cycle at whose start some PE holds tokens parked on the most different
// local indexes (at least two), with that PE's address. A kill event at
// that cycle finds the PE in exactly this state: a script of scheduled
// kills perturbs nothing before its first event.
func scoutParked(t *testing.T, cfg Config, prog *isa.Program, params []map[string]uint64, mem Memory) (uint64, place.PEAddr) {
	t.Helper()
	cfg.Fault = nil
	p, err := New(cfg, prog, params, mem)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.inject()
	var (
		most  int
		cycle uint64
		addr  place.PEAddr
	)
	for c := uint64(0); c < 100_000 && p.haltCount < p.threads; c++ {
		p.tick(c)
		for i := range p.pes {
			pe := &p.pes[i]
			held := 0
			for li := range pe.parked {
				if !pe.parked[li].empty() {
					held++
				}
			}
			if held > most {
				most, cycle, addr = held, c+1, pe.addr
			}
		}
	}
	if most < 2 {
		t.Fatal("no PE ever held tokens parked on two instructions")
	}
	return cycle, addr
}

// TestKillWithParkedTokensDeterministic kills a PE while it holds
// k-rejected tokens parked on several instructions of a loop kernel. The
// tokens re-deliver to the instructions' new hosts in ascending
// local-index order, so every run of the script must agree on every
// statistic, halt value and memory word. (The parked lists were once a map
// drained in Go's map order: on this two-PE machine, where every migrated
// token lands on the one survivor, twenty runs gave fourteen digests.)
func TestKillWithParkedTokensDeterministic(t *testing.T) {
	w, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(workload.Tiny)
	for _, k := range []int{1, 2} {
		cfg := smallCfg()
		cfg.K = k
		cfg.Arch.Domains, cfg.Arch.PEs = 1, 2
		cycle, addr := scoutParked(t, cfg, inst.Prog, inst.Params(1), Memory(inst.Mem))
		cfg.Fault = &fault.Script{
			Seed:   3,
			Events: []fault.Event{{Cycle: cycle, Kind: fault.KindKillPE, Cluster: addr.Cluster, Domain: addr.Domain, PE: addr.PE}},
		}
		var first *Stats
		var firstProc *Processor
		for run := 0; run < 20; run++ {
			proc, err := New(cfg, inst.Prog, inst.Params(1), Memory(inst.Mem))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			st, err := proc.Run()
			if err != nil {
				t.Fatalf("k=%d run %d: %v", k, run, err)
			}
			if st.Fault.TokensMigrated == 0 {
				t.Fatalf("k=%d: the kill at cycle %d migrated no tokens", k, cycle)
			}
			if first == nil {
				first, firstProc = st, proc
				continue
			}
			if st.Digest() != first.Digest() {
				t.Fatalf("k=%d run %d: stats diverged\nfirst: %+v\nthis:  %+v", k, run, first, st)
			}
			if !reflect.DeepEqual(proc.haltValues, firstProc.haltValues) || !reflect.DeepEqual(proc.Mem(), firstProc.Mem()) {
				t.Fatalf("k=%d run %d: halt values or memory image diverged", k, run)
			}
		}
	}
}
