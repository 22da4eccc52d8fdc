// Package validate is the continuous differential-validation harness
// keeping the timed simulator's *results* honest against the untimed
// reference interpreter (internal/ref): every generated case runs on both
// engines and any divergence in halt values, final memory, or
// instruction counts is a failure. (The simulator's *performance* is held
// by exact pins instead: whole-Stats digests in testdata/golden_stats.json
// and internal/sim/testdata/sim_pins.json, and the results/ files
// compared byte for byte.)
//
// On top of the differential check the harness enforces the metamorphic
// invariants the simulator promises: run-to-run determinism,
// scheduler-strategy equivalence, and cache-hit ≡ recompute. Every case
// is generated from a seed (gen.go), every failure shrinks to a minimal
// reproduction (shrink.go), and every reproduction round-trips through a
// one-line token (token.go) — so a red nightly run is one
// `wsvalidate -repro <token>` away from a debugger.
//
// The harness exists so aggressive hot-path work can proceed behind a
// safety net that checks far more of the configuration × workload space
// than the unit tests reach.
package validate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"wavescalar/internal/area"
	"wavescalar/internal/ref"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// Case is one differential-validation input: a machine, a workload at a
// scale and a thread count. It is the unit of
// generation, checking, shrinking, and token round-tripping, so every
// field must be plain serializable data.
type Case struct {
	// Seed is the generator seed this case was drawn from (0 for
	// hand-built cases). Shrinking preserves it so a shrunk case keeps
	// selecting the same invariant variants as the original.
	Seed      uint64      `json:"seed,omitempty"`
	Arch      area.Params `json:"arch"`
	K         int         `json:"k,omitempty"`
	Workload  string      `json:"workload"`
	Iters     int         `json:"iters"`
	Footprint int         `json:"footprint"`
	Threads   int         `json:"threads"`
}

// Scale returns the case's workload scale.
func (c Case) Scale() workload.Scale {
	return workload.Scale{Iters: c.Iters, Footprint: c.Footprint}
}

// Describe renders the case as a short human-readable block — what
// wsvalidate prints next to a failure, compact enough that a shrunk
// repro fits in a terminal glance.
func (c Case) Describe() string {
	a := c.Arch
	s := fmt.Sprintf("arch:     C%d D%d P%d V%d M%d L1:%dKB L2:%dMB\n",
		a.Clusters, a.Domains, a.PEs, a.Virt, a.Match, a.L1KB, a.L2MB)
	if c.K > 0 {
		s += fmt.Sprintf("k:        %d\n", c.K)
	}
	s += fmt.Sprintf("workload: %s (iters=%d footprint=%d) threads=%d\n",
		c.Workload, c.Iters, c.Footprint, c.Threads)
	return s
}

// Config returns the simulator configuration the case describes: the
// paper's baseline microarchitecture on the case's machine, with run
// bounds tight enough that a pathological case fails fast instead of
// burning the fuzzing budget.
func (c Case) Config() sim.Config {
	cfg := sim.Baseline(c.Arch)
	if c.K > 0 {
		cfg.K = c.K
	}
	cfg.MaxCycles = 5_000_000
	cfg.StallLimit = 200_000
	return cfg
}

// Failure is one validation failure: the case that produced it, the
// invariant it broke, and enough detail to read the report without
// replaying anything.
type Failure struct {
	Case   Case   `json:"case"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// Repro is the one-line reproduction token (filled by the fuzz loop
	// after shrinking; see token.go).
	Repro string `json:"repro,omitempty"`
}

// Failure kinds.
const (
	KindSimError       = "sim-error"       // sim failed where the reference succeeded
	KindHaltDiverged   = "halt-divergence" // per-thread halt values differ
	KindMemDiverged    = "memory-divergence"
	KindCountDiverged  = "count-divergence" // dynamic/countable instruction totals differ
	KindNondeterminism = "nondeterminism"   // identical runs, different outcomes
	KindSchedDiverged  = "sched-divergence" // full-scan ≠ active-set scheduler
	KindCacheDiverged  = "cache-divergence" // cache hit ≠ recompute
)

func (f *Failure) Error() string {
	return fmt.Sprintf("validate: %s: %s", f.Kind, f.Detail)
}

// SimOutcome is everything the harness compares about one simulator run.
// Err records a deterministic run failure (stall, deadlock); outcomes
// with Err set carry no result fields but still participate in the
// determinism check.
type SimOutcome struct {
	Stats      *sim.Stats
	HaltValues []uint64
	Mem        map[uint64]uint64
	Err        error
}

// digest folds an outcome into one comparable string: the full Stats
// digest (which covers every counter), halt values, a canonical memory
// hash, and the error text.
func (o *SimOutcome) digest() string {
	h := sha256.New()
	if o.Stats != nil {
		fmt.Fprintf(h, "stats|%s", o.Stats.Digest())
	}
	fmt.Fprintf(h, "|halts|%v", o.HaltValues)
	if o.Mem != nil {
		addrs := make([]uint64, 0, len(o.Mem))
		for a := range o.Mem {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fmt.Fprintf(h, "|%x=%x", a, o.Mem[a])
		}
	}
	if o.Err != nil {
		fmt.Fprintf(h, "|err|%s", o.Err)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// RunSimFunc executes one simulator run for the harness; fullScan asks
// for the reference scheduler (sim.NewFullScan), which only the
// scheduler variant does. The default (nil) runs the real simulator;
// tests inject wrappers that corrupt results to prove the harness
// catches and shrinks real divergence.
type RunSimFunc func(cfg sim.Config, inst *workload.Instance, threads int, fullScan bool) (*SimOutcome, error)

// Checker runs differential and metamorphic checks on cases. The zero
// value checks against the real simulator.
type Checker struct {
	// RunSim overrides how simulator runs execute (nil = real simulator).
	// Every sim-side run — the differential run, the determinism rerun,
	// and the scheduler variant — goes through it.
	RunSim RunSimFunc
	// Sims counts simulator runs performed, for budget accounting.
	Sims int
}

// runSim dispatches to the hook or the real simulator. The returned
// error means the run could not be built (bad config for this machine) —
// an infrastructure problem, not a divergence; deterministic run
// failures land in SimOutcome.Err.
func (ck *Checker) runSim(cfg sim.Config, inst *workload.Instance, threads int, fullScan bool) (*SimOutcome, error) {
	ck.Sims++
	fn := ck.RunSim
	if fn == nil {
		fn = RealSim
	}
	return fn(cfg, inst, threads, fullScan)
}

// RealSim runs the real cycle-level simulator and extracts the outcome —
// the default RunSimFunc, exported so test wrappers can delegate to it.
func RealSim(cfg sim.Config, inst *workload.Instance, threads int, fullScan bool) (*SimOutcome, error) {
	build := sim.New
	if fullScan {
		build = sim.NewFullScan
	}
	proc, err := build(cfg, inst.Prog, inst.Params(threads), sim.Memory(inst.Mem))
	if err != nil {
		return nil, err
	}
	st, rerr := proc.Run()
	out := &SimOutcome{Stats: st, Err: rerr}
	if rerr == nil {
		out.HaltValues = make([]uint64, threads)
		for t := 0; t < threads; t++ {
			out.HaltValues[t] = proc.HaltValue(uint32(t))
		}
		out.Mem = proc.Mem()
	}
	return out, nil
}

// Check runs the full per-case validation: the sim-vs-ref differential
// comparison, the determinism rerun, and — selected deterministically by
// the case seed — one of the metamorphic variants (scheduler
// equivalence, cache-hit ≡ recompute). It returns a non-nil
// Failure on divergence, or an error for infrastructure problems
// (unknown workload, unbuildable config) that are neither pass nor fail.
func (ck *Checker) Check(c Case) (*Failure, error) {
	w, err := workload.ByName(c.Workload)
	if err != nil {
		return nil, err
	}
	sc := c.Scale()
	if sc.Iters <= 0 || sc.Footprint <= 0 {
		return nil, fmt.Errorf("validate: case scale %+v not positive", sc)
	}
	inst := w.Build(sc)
	threads := c.Threads
	if threads < 1 {
		threads = 1
	}
	if threads > inst.MaxThreads {
		threads = inst.MaxThreads
	}
	cfg := c.Config()

	// The reference is ground truth; it cannot fail on a bundled
	// workload, so a reference error is an infrastructure error.
	refRes, err := ref.RunThreads(inst.Prog, inst.Mem, inst.Params(threads))
	if err != nil {
		return nil, fmt.Errorf("validate: reference run: %w", err)
	}

	out, err := ck.runSim(cfg, inst, threads, false)
	if err != nil {
		return nil, fmt.Errorf("validate: building simulator: %w", err)
	}

	// Determinism: the same case must produce a byte-identical outcome —
	// including identical failures.
	again, err := ck.runSim(cfg, inst, threads, false)
	if err != nil {
		return nil, fmt.Errorf("validate: building simulator (rerun): %w", err)
	}
	if d1, d2 := out.digest(), again.digest(); d1 != d2 {
		return &Failure{Case: c, Kind: KindNondeterminism,
			Detail: fmt.Sprintf("two identical runs diverged: outcome %s vs %s", d1, d2)}, nil
	}

	if out.Err != nil {
		// Any failure is a divergence: the reference completed this exact
		// program.
		return &Failure{Case: c, Kind: KindSimError,
			Detail: fmt.Sprintf("simulator failed where the reference succeeded: %v", out.Err)}, nil
	}

	if f := diffOutcome(c, out, refRes, threads); f != nil {
		return f, nil
	}
	return ck.checkVariant(c, cfg, inst, threads, out)
}

// diffOutcome compares a completed simulator outcome against the
// reference: per-thread halt values, the final memory image, and the
// aggregate dynamic/countable instruction counts.
func diffOutcome(c Case, out *SimOutcome, refRes *ref.ThreadsResult, threads int) *Failure {
	for t := 0; t < threads; t++ {
		if out.HaltValues[t] != refRes.HaltValues[t] {
			return &Failure{Case: c, Kind: KindHaltDiverged,
				Detail: fmt.Sprintf("thread %d halt value: sim %d, ref %d", t, out.HaltValues[t], refRes.HaltValues[t])}
		}
	}
	if f := diffMemory(c, out.Mem, refRes.Mem); f != nil {
		return f
	}
	// The countable (architectural) total must match the reference
	// exactly; the dynamic total may exceed it — speculative fires replay
	// instructions — but can never fall below it, since the simulator
	// cannot skip work the reference performed.
	if out.Stats.Countable != refRes.Countable || out.Stats.Dynamic < refRes.Dynamic {
		return &Failure{Case: c, Kind: KindCountDiverged,
			Detail: fmt.Sprintf("instruction counts: sim dynamic=%d countable=%d, ref dynamic=%d countable=%d (countable must match, dynamic must not undercount)",
				out.Stats.Dynamic, out.Stats.Countable, refRes.Dynamic, refRes.Countable)}
	}
	return nil
}

// diffMemory compares final memory images in both directions, reporting
// the lowest few differing addresses.
func diffMemory(c Case, simMem map[uint64]uint64, refMem ref.Memory) *Failure {
	var bad []uint64
	for a, v := range simMem {
		if rv, ok := refMem[a]; !ok || rv != v {
			bad = append(bad, a)
		}
	}
	for a := range refMem {
		if _, ok := simMem[a]; !ok {
			bad = append(bad, a)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	const keep = 4
	detail := fmt.Sprintf("%d differing addresses;", len(bad))
	for i, a := range bad {
		if i == keep {
			detail += " ..."
			break
		}
		sv, sok := simMem[a]
		rv, rok := refMem[a]
		detail += fmt.Sprintf(" [0x%x] sim=%d(%v) ref=%d(%v)", a, sv, sok, rv, rok)
	}
	return &Failure{Case: c, Kind: KindMemDiverged, Detail: detail}
}

// checkVariant runs one metamorphic variant, selected deterministically
// by the case seed so a shrunk case (which keeps its seed) re-runs the
// same variant and the repro token replays the same work.
func (ck *Checker) checkVariant(c Case, cfg sim.Config, inst *workload.Instance, threads int, out *SimOutcome) (*Failure, error) {
	if mix(c.Seed, 0x1A11)%2 == 0 {
		return ck.checkSched(c, cfg, inst, threads, out)
	}
	return ck.checkCache(c, cfg, threads)
}

// checkSched verifies scheduler-strategy equivalence: the full-scan
// oracle must produce an outcome byte-identical to the active-set
// default, including identical Stats.
func (ck *Checker) checkSched(c Case, cfg sim.Config, inst *workload.Instance, threads int, out *SimOutcome) (*Failure, error) {
	fout, err := ck.runSim(cfg, inst, threads, true)
	if err != nil {
		return nil, fmt.Errorf("validate: building simulator (full scan): %w", err)
	}
	if d1, d2 := out.digest(), fout.digest(); d1 != d2 {
		return &Failure{Case: c, Kind: KindSchedDiverged,
			Detail: fmt.Sprintf("full-scan scheduler diverged from active set: %s vs %s", d1, d2)}, nil
	}
	return nil, nil
}
