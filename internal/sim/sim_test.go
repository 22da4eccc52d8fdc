package sim

import (
	"errors"
	"testing"

	"wavescalar/internal/graph"
	"wavescalar/internal/isa"
	"wavescalar/internal/ref"
)

// smallArch is a one-cluster machine small enough for fast tests.
func smallCfg() Config {
	cfg := Baseline(BaselineArch())
	cfg.MaxCycles = 5_000_000
	cfg.StallLimit = 100_000
	return cfg
}

// runBoth executes a program on the cycle simulator and the reference
// interpreter and checks they agree functionally.
func runBoth(t *testing.T, cfg Config, p *isa.Program, params map[string]uint64, seed map[uint64]uint64) (*Stats, *Processor) {
	t.Helper()
	proc, err := New(cfg, p, []map[string]uint64{params}, Memory(seed))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	refMem := ref.Memory{}
	for a, v := range seed {
		refMem[a] = v
	}
	ip := ref.New(p, refMem)
	res, err := ip.Run(0, params)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	if got, want := proc.HaltValue(0), res.HaltValue; got != want {
		t.Errorf("halt value: sim=%d ref=%d", got, want)
	}
	for a, v := range ip.Memory() {
		if got := proc.Mem()[a]; got != v {
			t.Errorf("mem[%#x]: sim=%d ref=%d", a, got, v)
		}
	}
	if st.Countable != res.Countable {
		t.Errorf("countable: sim=%d ref=%d", st.Countable, res.Countable)
	}
	return st, proc
}

func sumLoopProg() *isa.Program {
	b := graph.New("sumloop")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	acc0 := b.Const(n, 0)
	l := b.Loop(i0, acc0, b.Nop(n))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)
	acc1 := b.Add(acc, i)
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, acc1, nn)
	b.Halt(out[1])
	return b.MustFinish()
}

func memLoopProg() *isa.Program {
	b := graph.New("memloop")
	n := b.Param("n")
	base := b.Param("base")
	i0 := b.Const(n, 0)
	l := b.Loop(i0, b.Nop(base), b.Nop(n))
	i, bs, nn := l.Var(0), l.Var(1), l.Var(2)
	addr := b.Add(bs, b.ShlI(i, 3))
	v := b.Load(addr)
	b.Store(b.Add(addr, b.Const(i, 4096)), b.AddI(v, 1))
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, bs, nn)
	b.Halt(out[0])
	return b.MustFinish()
}

func TestStraightLine(t *testing.T) {
	b := graph.New("straight")
	s := b.Start()
	x := b.Const(s, 10)
	y := b.Const(s, 32)
	b.Halt(b.Add(x, y))
	p := b.MustFinish()
	st, proc := runBoth(t, smallCfg(), p, nil, nil)
	if proc.HaltValue(0) != 42 {
		t.Errorf("result = %d, want 42", proc.HaltValue(0))
	}
	if st.Cycles == 0 || st.Cycles > 100 {
		t.Errorf("straight-line program took %d cycles", st.Cycles)
	}
}

func TestSumLoop(t *testing.T) {
	st, proc := runBoth(t, smallCfg(), sumLoopProg(), map[string]uint64{"n": 50}, nil)
	if proc.HaltValue(0) != 49*50/2 {
		t.Errorf("sum = %d, want %d", proc.HaltValue(0), 49*50/2)
	}
	if st.AIPC() <= 0 {
		t.Error("AIPC should be positive")
	}
}

func TestMemoryLoop(t *testing.T) {
	seed := map[uint64]uint64{}
	for i := uint64(0); i < 16; i++ {
		seed[0x1000+i*8] = i * i
	}
	st, proc := runBoth(t, smallCfg(), memLoopProg(),
		map[string]uint64{"n": 16, "base": 0x1000}, seed)
	for i := uint64(0); i < 16; i++ {
		want := i*i + 1
		if got := proc.Mem()[0x1000+i*8+4096]; got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if st.StoreBuf.IssuedLoads != 16 || st.StoreBuf.IssuedStores != 16 {
		t.Errorf("sb loads/stores = %d/%d, want 16/16",
			st.StoreBuf.IssuedLoads, st.StoreBuf.IssuedStores)
	}
	if st.Cache.Accesses == 0 {
		t.Error("cache never accessed")
	}
	if st.MemAccesses != 32 {
		t.Errorf("mem accesses = %d, want 32", st.MemAccesses)
	}
}

func TestPodBypassLatency(t *testing.T) {
	// A chain of dependent adds placed consecutively executes
	// back-to-back through the bypass network: roughly 1 cycle per
	// instruction once the pipeline fills.
	b := graph.New("chain")
	s := b.Start()
	v := b.Const(s, 0)
	const n = 200
	for i := 0; i < n; i++ {
		v = b.AddI(v, 1)
	}
	b.Halt(v)
	p := b.MustFinish()
	st, proc := runBoth(t, smallCfg(), p, nil, nil)
	if proc.HaltValue(0) != n {
		t.Fatalf("result = %d, want %d", proc.HaltValue(0), n)
	}
	perInst := float64(st.Cycles) / float64(n)
	if perInst > 2.5 {
		t.Errorf("dependent chain at %.2f cycles/inst; bypass should give ~1-2", perInst)
	}
	if st.SpecFires == 0 {
		t.Error("no speculative fires on a dependent chain")
	}
	// The chain's traffic is overwhelmingly local.
	local := st.Traffic[LevelSelf][ClassOperand] + st.Traffic[LevelPod][ClassOperand]
	if share := float64(local) / float64(st.TrafficTotal()); share < 0.5 {
		t.Errorf("pod-local share = %.2f, want > 0.5 for a chain", share)
	}
}

func TestSpecFireDisabled(t *testing.T) {
	b := graph.New("chain")
	s := b.Start()
	v := b.Const(s, 0)
	for i := 0; i < 100; i++ {
		v = b.AddI(v, 1)
	}
	b.Halt(v)
	p := b.MustFinish()

	fast, _ := runBoth(t, smallCfg(), p, nil, nil)
	slowCfg := smallCfg()
	slowCfg.SpecFire = false
	slow, _ := runBoth(t, slowCfg, p, nil, nil)
	if slow.Cycles <= fast.Cycles {
		t.Errorf("disabling speculative fire should slow a chain: %d vs %d",
			slow.Cycles, fast.Cycles)
	}
}

func TestMultiThreaded(t *testing.T) {
	cfg := smallCfg()
	cfg.Arch.Clusters = 4
	p := sumLoopProg()
	params := []map[string]uint64{}
	for i := 0; i < 8; i++ {
		params = append(params, map[string]uint64{"n": 30})
	}
	proc, err := New(cfg, p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for th := uint32(0); th < 8; th++ {
		if got := proc.HaltValue(th); got != 29*30/2 {
			t.Errorf("thread %d sum = %d, want %d", th, got, 29*30/2)
		}
	}
	if st.Countable == 0 {
		t.Error("no countable instructions")
	}
}

func TestMultiThreadScaling(t *testing.T) {
	// 8 independent threads on 4 clusters should outperform the same 8
	// threads on 1 cluster.
	p := sumLoopProg()
	params := make([]map[string]uint64, 8)
	for i := range params {
		params[i] = map[string]uint64{"n": 100}
	}
	run := func(clusters int) float64 {
		cfg := smallCfg()
		cfg.Arch.Clusters = clusters
		proc, err := New(cfg, p, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := proc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.AIPC()
	}
	one, four := run(1), run(4)
	if four <= one {
		t.Errorf("4 clusters AIPC %.3f should beat 1 cluster %.3f for 8 threads", four, one)
	}
}

func TestThreadsShareMemoryCoherently(t *testing.T) {
	// Each thread stores to its own slots; afterwards all values must be
	// visible (coherence keeps the L1s consistent; function comes from
	// the shared memory, timing from the protocol).
	b := graph.New("percore")
	tid := b.Param("tid")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	base := b.ShlI(tid, 10) // 1KB apart
	l := b.Loop(i0, b.Nop(base), b.Nop(n))
	i, bs, nn := l.Var(0), l.Var(1), l.Var(2)
	b.Store(b.Add(bs, b.ShlI(i, 3)), b.AddI(i, 100))
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, bs, nn)
	b.Halt(out[0])
	p := b.MustFinish()

	cfg := smallCfg()
	cfg.Arch.Clusters = 4
	params := []map[string]uint64{}
	for tdx := uint64(0); tdx < 4; tdx++ {
		params = append(params, map[string]uint64{"tid": tdx, "n": 8})
	}
	proc, err := New(cfg, p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	for tdx := uint64(0); tdx < 4; tdx++ {
		for i := uint64(0); i < 8; i++ {
			want := i + 100
			if got := proc.Mem()[tdx<<10+i*8]; got != want {
				t.Errorf("thread %d slot %d = %d, want %d", tdx, i, got, want)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := memLoopProg()
	run := func() (uint64, uint64) {
		cfg := smallCfg()
		cfg.Arch.Clusters = 4
		params := []map[string]uint64{
			{"n": 20, "base": 0x1000},
			{"n": 20, "base": 0x9000},
		}
		proc, err := New(cfg, p, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := proc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles, st.TrafficTotal()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("nondeterministic: cycles %d vs %d, traffic %d vs %d", c1, c2, t1, t2)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallCfg()
	cfg.PodSize = 3
	if _, err := New(cfg, sumLoopProg(), []map[string]uint64{{"n": 1}}, nil); err == nil {
		t.Error("pod size 3 accepted")
	}
	cfg = smallCfg()
	if _, err := New(cfg, sumLoopProg(), nil, nil); err == nil {
		t.Error("zero threads accepted")
	}
	cfg = smallCfg()
	cfg.MatchBanks = maxMatchBanks + 1 // more banks than a table header stamps
	if _, err := New(cfg, sumLoopProg(), []map[string]uint64{{"n": 1}}, nil); err == nil {
		t.Error("more matching-table banks than a table header stamps accepted")
	}
}

// TestConfigValidateDeterministic: the knob named by a multiply-bad
// configuration is the first in Config field order on every call (the text
// is served in 400 bodies and cached inside Cell.Err), and checking a valid
// configuration allocates nothing.
func TestConfigValidateDeterministic(t *testing.T) {
	bad := smallCfg()
	bad.K, bad.L1Lat, bad.NocBW = 0, 0, 0
	const want = "sim: K must be positive, got 0"
	for i := 0; i < 200; i++ {
		if err := bad.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %q", i, err, want)
		}
	}
	good := smallCfg()
	if per := testing.AllocsPerRun(100, func() {
		if err := good.Validate(); err != nil {
			t.Fatal(err)
		}
	}); per != 0 {
		t.Errorf("Validate on a valid config: %v allocs, want 0", per)
	}
}

func TestVirtualizationThrashing(t *testing.T) {
	// A machine whose instruction stores are far too small for the
	// program suffers instruction-store misses and slows down.
	b := graph.New("wide")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	acc0 := b.Const(n, 0)
	l := b.Loop(i0, acc0, b.Nop(n))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)
	// A wide body so the static program is large.
	v := i
	for j := 0; j < 120; j++ {
		v = b.AddI(v, uint64(j))
	}
	acc1 := b.Add(acc, v)
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, acc1, nn)
	b.Halt(out[1])
	p := b.MustFinish()

	run := func(virt int) (*Stats, error) {
		cfg := smallCfg()
		cfg.Arch.Clusters = 1
		cfg.Arch.Domains = 1
		cfg.Arch.PEs = 2
		cfg.Arch.Virt = virt
		cfg.Arch.Match = max(16, min(virt, 128))
		proc, err := New(cfg, p, []map[string]uint64{{"n": 30}}, nil)
		if err != nil {
			return nil, err
		}
		return proc.Run()
	}
	big, err := run(128)
	if err != nil {
		t.Fatal(err)
	}
	small, err := run(16) // 2 PEs x 16 = 32 slots for ~150 instructions
	if err != nil {
		t.Fatal(err)
	}
	if small.IStoreMisses == 0 {
		t.Error("tiny instruction stores should miss")
	}
	if small.Cycles <= big.Cycles {
		t.Errorf("thrashing config (%d cycles) should be slower than large (%d)",
			small.Cycles, big.Cycles)
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
