package design

import (
	"fmt"
	"sort"

	"wavescalar/internal/area"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// Tuning reproduces Table 4: the per-application matching-table parameters.
type Tuning struct {
	App   string
	KOpt  int
	UOpt  int
	Ratio float64 // virtualization ratio k_opt / u_opt
}

// TuneOptions configures the tuning procedure.
type TuneOptions struct {
	Scale workload.Scale
	// Ks are the k-loop bounds to sweep (ascending).
	Ks []int
	// Us are the over-subscription factors to sweep (ascending).
	Us []int
	// Tol is the relative AIPC tolerance: k_opt is the smallest k within
	// Tol of the best, u_opt the largest u not losing more than Tol.
	Tol float64
	// Configure overrides the tuning machine: it receives TunePoint()
	// (the narrow single-pod tuning configuration) and returns the base
	// config the k/u sweeps perturb; nil uses BaselineConfigure. It is
	// the same ConfigureFunc type the explore engine's sweeps use.
	Configure ConfigureFunc
}

// Validate reports whether the options are usable, wrapping ErrBadOptions
// on failure. Tune validates eagerly.
func (o TuneOptions) Validate() error {
	if err := validateScale(o.Scale); err != nil {
		return err
	}
	for name, vals := range map[string][]int{"Ks": o.Ks, "Us": o.Us} {
		if len(vals) == 0 {
			return fmt.Errorf("%w: %s is empty", ErrBadOptions, name)
		}
		if vals[0] <= 0 {
			return fmt.Errorf("%w: %s must be positive, got %d", ErrBadOptions, name, vals[0])
		}
		if !sort.IntsAreSorted(vals) {
			return fmt.Errorf("%w: %s %v must be ascending", ErrBadOptions, name, vals)
		}
	}
	if o.Tol <= 0 || o.Tol >= 1 {
		return fmt.Errorf("%w: Tol %v must be in (0, 1)", ErrBadOptions, o.Tol)
	}
	return nil
}

// DefaultTuneOptions mirrors the paper's procedure: raise k on an
// effectively infinite matching table until performance stops improving,
// then with V=256 raise u until performance drops significantly.
func DefaultTuneOptions() TuneOptions {
	return TuneOptions{
		Scale: workload.Tiny,
		Ks:    []int{1, 2, 3, 4, 6, 8},
		Us:    []int{1, 2, 4, 8, 16, 32, 64},
		Tol:   0.05,
	}
}

// TunePoint is the machine used for tuning: a single pod (one domain of
// two PEs) with the largest instruction stores the RTL supports (V=256).
// The narrow machine concentrates each program's instances onto few
// matching tables, which is the regime the paper's thousands-of-
// instructions binaries put a full cluster in; a full cluster would leave
// our (smaller) kernels with only a handful of instructions per PE and
// every sweep point flat.
func TunePoint() Point {
	arch := sim.BaselineArch()
	arch.Domains = 1
	arch.PEs = 2
	arch.Virt = 256
	arch.Match = 256
	return Point{Arch: arch, Area: area.Total(arch)}
}

// Tune computes k_opt, u_opt and the virtualization ratio for one workload,
// following Section 4.2. It owns the selection logic only: every
// single-thread AIPC it compares comes from measure — the explore engine
// passes its cached, journaled cell (Explorer.Tune) — so this package never
// simulates on a tuning's behalf. Options are validated eagerly (errors
// wrap ErrBadOptions); a measure error aborts the tuning, named by step.
func Tune(app string, opt TuneOptions, measure func(sim.Config) (float64, error)) (Tuning, error) {
	if err := opt.Validate(); err != nil {
		return Tuning{}, err
	}
	configure := opt.Configure
	if configure == nil {
		configure = BaselineConfigure
	}
	tuneConfig := func(match, k int) sim.Config {
		cfg := configure(TunePoint())
		cfg.Arch.Match = match
		cfg.K = k
		return cfg
	}

	// Step 1: k_opt on an effectively infinite matching table (M = 4096,
	// far beyond any instance demand).
	kAIPC := make([]float64, len(opt.Ks))
	best := 0.0
	for i, k := range opt.Ks {
		a, err := measure(tuneConfig(4096, k))
		if err != nil {
			return Tuning{}, fmt.Errorf("design: tuning %s at k=%d: %w", app, k, err)
		}
		kAIPC[i] = a
		if a > best {
			best = a
		}
	}
	kOpt := opt.Ks[len(opt.Ks)-1]
	for i, k := range opt.Ks {
		if kAIPC[i] >= best*(1-opt.Tol) {
			kOpt = k
			break
		}
	}

	// Step 2: u_opt with V=256 and M = V*k_opt/u.
	uOpt := opt.Us[0]
	var ref float64
	for i, u := range opt.Us {
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
		if a < ref*(1-opt.Tol) {
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

// MaxRatio returns the largest (most conservative) virtualization ratio,
// rounded up to a power of two — the paper's choice for the design sweep.
func MaxRatio(tunings []Tuning) float64 {
	m := 0.0
	for _, t := range tunings {
		if t.Ratio > m {
			m = t.Ratio
		}
	}
	r := 1.0 / 8
	for r < m {
		r *= 2
	}
	return r
}
