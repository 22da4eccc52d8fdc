package sim

import (
	"math"

	"wavescalar/internal/isa"
	"wavescalar/internal/place"
)

// Binding is what placing a program says, before any cycle runs, about the
// instruction stores and matching tables its run will use: which
// configurations differing only in V (Arch.Virt) and M (Arch.Match) run
// alike (Inert). The zero Binding certifies nothing.
type Binding struct {
	// MaxBound is the largest per-PE bound count
	// (place.Placement.MaxBound) of the run's threads placed on the
	// machine's clusters, domains and PEs with its placement policy and an
	// unbounded V.
	MaxBound int
}

// Bind places threads copies of prog on cfg's clusters, domains and PEs
// with cfg's placement policy and an unbounded V, and returns the binding.
// Only those four fields of cfg are read.
func Bind(cfg Config, prog *isa.Program, threads int) (Binding, error) {
	pl, err := place.Place(prog, threads, place.Config{
		Clusters: cfg.Arch.Clusters, Domains: cfg.Arch.Domains,
		PEs: cfg.Arch.PEs, Virt: math.MaxInt, Policy: cfg.Placement,
	})
	if err != nil {
		return Binding{}, err
	}
	return Binding{MaxBound: pl.MaxBound()}, nil
}

// Inert reports whether V and M decide nothing for the run on cfg: it
// makes, event for event, the run with an unbounded instruction store and
// matching table. This is the whole V/M rule, with b the MaxBound:
//
//   - b ≤ V. Placement reads V only to cap a thread's chunk at V on a
//     machine of several clusters, and a chunk is at most b (the first PE
//     of a thread's ring gets a whole one), so the placement is the
//     unbounded one. Every PE's store then starts with all its bound
//     instructions resident (istore.NewSet), so istore.Access never misses
//     and never evicts, and the store's LRU order decides nothing.
//   - M ≥ MatchAssoc·K·b (and M is a whole number of sets, as Validate
//     asks). A token for local index li < b of wave w goes to set
//     (li·K + w mod K) mod (M/MatchAssoc), and li·K + w mod K < K·b ≤
//     M/MatchAssoc, so the modulo is the identity: every set holds the
//     entries it holds at any larger M, its LRU victims are the same, and
//     so is the bank (set mod MatchBanks) and the K sets a k-bound scan
//     reads. The table reads M nowhere else but to size its entry array.
//
// Nothing else in the simulator reads V or M (Validate aside). FuzzBinding
// checks the rule by digest on random workloads, shapes and V/M pairs.
func (b Binding) Inert(cfg Config) bool {
	v, m := cfg.Arch.Virt, cfg.Arch.Match
	return b.MaxBound > 0 && b.MaxBound <= v &&
		m%cfg.MatchAssoc == 0 && m >= cfg.MatchAssoc*cfg.K*b.MaxBound
}
