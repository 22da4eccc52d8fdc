package validate

import (
	"fmt"

	"wavescalar/internal/fault"
	"wavescalar/internal/graph"
	"wavescalar/internal/isa"
	"wavescalar/internal/sim"
)

// The degradation probe: nested PE kill sets drawn from monoSeed (so the
// 25% set contains the 10% set), striking at monoCycle, on a
// throughput-bound loop of monoIters iterations in each of monoThreads
// threads.
const (
	monoSeed    = 42
	monoCycle   = 200
	monoThreads = 8
	monoIters   = 40
)

// MonotoneResult reports the degradation curve the check measured.
type MonotoneResult struct {
	Fractions []float64 `json:"fractions"`
	AIPC      []float64 `json:"aipc"`
}

// CheckMonotone verifies graceful degradation: under nested kill sets
// (the 25% set contains the 10% set, same seed), retained AIPC must be
// monotonically non-increasing, every thread must still compute the
// right answer, and no fraction may stall the machine.
//
// The probe is a wide independent-add loop rather than a bundled
// workload: its throughput is bound by alive-PE dispatch bandwidth, so
// removing resources must cost performance. (Narrow dependent chains can
// legitimately speed up under kills — consolidation onto fewer PEs
// improves bypass locality — which would make the invariant vacuous.)
func (ck *Checker) CheckMonotone() (*MonotoneResult, *Failure, error) {
	const width = 48
	prog := wideLoop(width)
	params := make([]map[string]uint64, monoThreads)
	for i := range params {
		params[i] = map[string]uint64{"n": monoIters}
	}
	// Per iteration i the body sums (i+j) for j in [0,width); accumulated
	// over i in [0, monoIters).
	w := uint64(width)
	want := w*(monoIters-1)*monoIters/2 + monoIters*(w*(w-1)/2)

	res := &MonotoneResult{Fractions: []float64{0, 0.05, 0.10, 0.25}}
	describe := func(f float64) string {
		return fmt.Sprintf("kill fraction %.2f (seed %d, cycle %d, %d threads)",
			f, monoSeed, monoCycle, monoThreads)
	}
	for _, f := range res.Fractions {
		cfg := sim.Baseline(sim.BaselineArch())
		cfg.MaxCycles = 5_000_000
		cfg.StallLimit = 200_000
		script, err := fault.KillFractionScript(sim.FaultShape(cfg), f, monoSeed, monoCycle)
		if err != nil {
			return nil, nil, err
		}
		cfg.Fault = script
		ck.Sims++
		proc, err := sim.New(cfg, prog, params, nil)
		if err != nil {
			return nil, nil, err
		}
		st, err := proc.Run()
		if err != nil {
			return res, &Failure{Kind: KindSimError,
				Detail: fmt.Sprintf("%s: machine stalled instead of degrading: %v", describe(f), err)}, nil
		}
		for t := 0; t < monoThreads; t++ {
			if got := proc.HaltValue(uint32(t)); got != want {
				return res, &Failure{Kind: KindHaltDiverged,
					Detail: fmt.Sprintf("%s: thread %d sum %d, want %d", describe(f), t, got, want)}, nil
			}
		}
		res.AIPC = append(res.AIPC, st.AIPC())
	}
	for i := 1; i < len(res.AIPC); i++ {
		if res.AIPC[i] > res.AIPC[i-1] {
			return res, &Failure{Kind: "degradation-not-monotone",
				Detail: fmt.Sprintf("AIPC %.4f at fraction %.2f exceeds %.4f at fraction %.2f",
					res.AIPC[i], res.Fractions[i], res.AIPC[i-1], res.Fractions[i-1])}, nil
		}
	}
	return res, nil, nil
}

// wideLoop builds the throughput-bound probe: a loop whose body is
// `width` independent adds reduced by a tree.
func wideLoop(width int) *isa.Program {
	b := graph.New("validate-wide")
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
