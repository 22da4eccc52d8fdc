package wavescalar_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"wavescalar"
)

func TestQuickstartFlow(t *testing.T) {
	// The README's quickstart: build a program, run it, read the stats.
	b := wavescalar.NewProgram("axpy")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	acc0 := b.ConstF(n, 0)
	l := b.Loop(i0, acc0, b.Nop(n))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)
	x := b.Load(b.AddI(b.ShlI(i, 3), 0x1000))
	y := b.Load(b.AddI(b.ShlI(i, 3), 0x2000))
	acc1 := b.FAdd(acc, b.FAdd(b.FMul(b.ConstF(i, 2), x), y))
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, acc1, nn)
	b.Halt(out[1])
	prog := b.MustFinish()

	mem := wavescalar.Memory{}
	for i := uint64(0); i < 8; i++ {
		mem[0x1000+i*8] = f64(float64(i))
		mem[0x2000+i*8] = f64(1)
	}
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())
	proc, err := wavescalar.BuildProcessor(prog,
		wavescalar.ProcConfig(cfg), wavescalar.ProcParams(map[string]uint64{"n": 8}),
		wavescalar.ProcMemory(mem))
	if err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 2*sum(0..7) + 8 = 64.
	if got := u2f(proc.HaltValue(0)); got != 64 {
		t.Errorf("result = %v, want 64", got)
	}
	if st.AIPC() <= 0 {
		t.Error("AIPC not positive")
	}
}

func TestRunWorkload(t *testing.T) {
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())
	st, err := runWorkload(cfg, "fft", wavescalar.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Countable == 0 {
		t.Error("no instructions counted")
	}
	if _, err := runWorkload(cfg, "nope", wavescalar.ScaleTiny, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestAreaAPI(t *testing.T) {
	arch := wavescalar.BaselineArch()
	if a := wavescalar.TotalArea(arch); a < 40 || a > 70 {
		t.Errorf("baseline area = %.1f, want tens of mm2", a)
	}
	if pe := wavescalar.PEArea(128, 128); pe <= 0 {
		t.Error("PE area not positive")
	}
	if ca := wavescalar.ClusterArea(arch); ca <= 0 {
		t.Error("cluster area not positive")
	}
	budget := wavescalar.ClusterBudget()
	if !strings.Contains(budget, "MATCH") {
		t.Error("budget missing MATCH row")
	}
}

func TestDesignSpaceAPI(t *testing.T) {
	if n := len(wavescalar.DesignSpace()); n < 21_000 {
		t.Errorf("design space = %d", n)
	}
	viable := wavescalar.ViableDesigns()
	if len(viable) < 30 {
		t.Errorf("viable = %d", len(viable))
	}
	if len(wavescalar.DesignRules()) == 0 {
		t.Error("no documented rules")
	}
	// A miniature sweep through the public API.
	apps := []wavescalar.Workload{mustWL(t, "gzip")}
	exp, err := wavescalar.NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	res, err := exp.Sweep(context.Background(), viable[:2], apps)
	if err != nil {
		t.Fatal(err)
	}
	if f := wavescalar.SweepFrontier(res); len(f) == 0 {
		t.Error("empty frontier")
	}
}

func TestWorkloadsAPI(t *testing.T) {
	// 15 paper kernels plus the 6 default tiled variants.
	if len(wavescalar.Workloads()) != 21 {
		t.Errorf("workloads = %d, want 21", len(wavescalar.Workloads()))
	}
	perSuite := map[string]int{}
	for _, w := range wavescalar.Workloads() {
		perSuite[w.Suite.String()]++
	}
	if perSuite[wavescalar.SuiteSplash.String()] != 6 {
		t.Error("splash2 should have 6 kernels")
	}
	if perSuite["tiled"] != 6 {
		t.Error("tiled should register 6 default variants")
	}
	// Tiled names resolve dynamically beyond the registered defaults.
	if _, err := wavescalar.WorkloadByName("gemm-os-8x8x8"); err != nil {
		t.Errorf("dynamic tiled name: %v", err)
	}
}

func mustWL(t *testing.T, name string) wavescalar.Workload {
	t.Helper()
	w, err := wavescalar.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func f64(v float64) uint64 { return math.Float64bits(v) }
func u2f(v uint64) float64 { return math.Float64frombits(v) }
