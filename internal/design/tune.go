package design

import (
	"fmt"

	"wavescalar/internal/area"
	"wavescalar/internal/sim"
)

// Tuning reproduces Table 4: the per-application matching-table parameters.
type Tuning struct {
	App   string
	KOpt  int
	UOpt  int
	Ratio float64 // virtualization ratio k_opt / u_opt
}

// The paper's tuning schedule (Section 4.2): raise k on an effectively
// infinite matching table until performance stops improving, then with
// V=256 raise u until performance drops significantly. tuneKs are the
// k-loop bounds and tuneUs the over-subscription factors swept, both
// ascending; tuneTol is the relative AIPC tolerance: k_opt is the smallest
// k within tuneTol of the best, u_opt the largest u not losing more than
// tuneTol.
var (
	tuneKs = []int{1, 2, 3, 4, 6, 8}
	tuneUs = []int{1, 2, 4, 8, 16, 32, 64}
)

const tuneTol = 0.05

// tunePoint is the machine used for tuning: a single pod (one domain of
// two PEs) with the largest instruction stores the RTL supports (V=256).
// The narrow machine concentrates each program's instances onto few
// matching tables, which is the regime the paper's thousands-of-
// instructions binaries put a full cluster in; a full cluster would leave
// our (smaller) kernels with only a handful of instructions per PE and
// every sweep point flat.
func tunePoint() area.Params {
	arch := sim.BaselineArch()
	arch.Domains = 1
	arch.PEs = 2
	arch.Virt = 256
	arch.Match = 256
	return arch
}

// Tune computes k_opt, u_opt and the virtualization ratio for one workload,
// following Section 4.2 on the Table 1 microarchitecture of tunePoint. It
// owns the selection logic only: every single-thread AIPC it compares comes
// from measure — the explore engine passes its cached, journaled cell
// (Explorer.Tune) — so this package never simulates on a tuning's behalf.
// A measure error aborts the tuning, named by step.
func Tune(app string, measure func(sim.Config) (float64, error)) (Tuning, error) {
	tuneConfig := func(match, k int) sim.Config {
		cfg := sim.Baseline(tunePoint())
		cfg.Arch.Match = match
		cfg.K = k
		return cfg
	}

	// Step 1: k_opt on an effectively infinite matching table (M = 4096,
	// far beyond any instance demand).
	kAIPC := make([]float64, len(tuneKs))
	best := 0.0
	for i, k := range tuneKs {
		a, err := measure(tuneConfig(4096, k))
		if err != nil {
			return Tuning{}, fmt.Errorf("design: tuning %s at k=%d: %w", app, k, err)
		}
		kAIPC[i] = a
		if a > best {
			best = a
		}
	}
	kOpt := tuneKs[len(tuneKs)-1]
	for i, k := range tuneKs {
		if kAIPC[i] >= best*(1-tuneTol) {
			kOpt = k
			break
		}
	}

	// Step 2: u_opt with V=256 and M = V*k_opt/u.
	uOpt := tuneUs[0]
	var ref float64
	for i, u := range tuneUs {
		m := 256 * kOpt / u
		if m < 4 {
			break
		}
		if m%2 != 0 {
			m++ // keep divisible by the 2-way associativity
		}
		a, err := measure(tuneConfig(m, kOpt))
		if err != nil {
			return Tuning{}, fmt.Errorf("design: tuning %s at u=%d: %w", app, u, err)
		}
		if i == 0 {
			ref = a
			uOpt = u
			continue
		}
		if a < ref*(1-tuneTol) {
			break // performance dropped significantly; previous u wins
		}
		uOpt = u
	}

	return Tuning{
		App:   app,
		KOpt:  kOpt,
		UOpt:  uOpt,
		Ratio: float64(kOpt) / float64(uOpt),
	}, nil
}
