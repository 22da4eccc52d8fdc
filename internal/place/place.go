// Package place implements WaveScalar's instruction placement: the binding
// of static instructions to processing elements that localizes
// communication ("instructions that communicate frequently are placed in
// close proximity").
//
// Instructions are ordered by a depth-first traversal of the dataflow graph
// (so producer-consumer chains are contiguous) and assigned in chunks that
// snake across the PEs of the thread's home cluster: PE by PE through each
// pod, pod by pod through each domain, then domain by domain. Each thread
// gets its own copy of the program, and threads are distributed round-robin
// over clusters — the isolation that keeps WaveScalar's traffic local and
// lets multithreaded workloads scale with cluster count. A thread too large
// for its home cluster spills onto the following clusters in ring order;
// on a single-cluster machine it instead oversubscribes the instruction
// stores, producing the virtualization thrashing the paper describes for
// capacities under 4K instructions.
package place

import (
	"fmt"

	"wavescalar/internal/isa"
)

// Policy selects the placement algorithm.
type Policy int

const (
	// PolicyChunkedDFS is WaveScalar's placement: depth-first dataflow
	// order assigned in contiguous chunks, so communicating instructions
	// share PEs and pods.
	PolicyChunkedDFS Policy = iota
	// PolicyScatter round-robins instructions over the home cluster's
	// PEs one at a time, destroying locality — the ablation baseline
	// that shows why placement matters (Section 4.3).
	PolicyScatter
)

// Config describes the machine shape placement targets.
type Config struct {
	Clusters int
	Domains  int
	PEs      int // per domain
	Virt     int // instruction store capacity per PE
	Policy   Policy
}

// PEAddr identifies one processing element.
type PEAddr struct {
	Cluster int
	Domain  int
	PE      int
}

// Pod returns the PE's pod index within its domain (pods are pairs).
func (a PEAddr) Pod() int { return a.PE / 2 }

// SamePod reports whether two PEs share a pod (bypass-network reach).
func (a PEAddr) SamePod(b PEAddr) bool {
	return a.Cluster == b.Cluster && a.Domain == b.Domain && a.Pod() == b.Pod()
}

// Placement maps every (thread, instruction) to its PE.
type Placement struct {
	cfg Config
	// loc[thread][inst]
	loc  [][]PEAddr
	home []int // home cluster per thread
	// perPE counts bound instructions (all threads) per PE; see bound.
	perPE []int
}

// bound returns the binding counter of the PE at a.
func (p *Placement) bound(a PEAddr) *int {
	return &p.perPE[(a.Cluster*p.cfg.Domains+a.Domain)*p.cfg.PEs+a.PE]
}

// Place computes a placement for threads copies of prog on the machine.
func Place(prog *isa.Program, threads int, cfg Config) (*Placement, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("place: need at least one thread")
	}
	if cfg.Clusters <= 0 || cfg.Domains <= 0 || cfg.PEs <= 0 || cfg.Virt <= 0 {
		return nil, fmt.Errorf("place: bad machine shape %+v", cfg)
	}
	order := dfsOrder(prog)
	p := &Placement{cfg: cfg, perPE: make([]int, cfg.Clusters*cfg.Domains*cfg.PEs)}
	n := len(prog.Insts)
	pesPerCluster := cfg.Domains * cfg.PEs

	for t := 0; t < threads; t++ {
		home := t % cfg.Clusters
		loc := make([]PEAddr, n)

		// Chunk size: spread the thread over its home cluster's PEs; cap
		// at the instruction store size while more clusters remain to
		// spill onto. The scatter policy uses chunk 1 (pure round-robin).
		chunk := (n + pesPerCluster - 1) / pesPerCluster
		if chunk < 1 {
			chunk = 1
		}
		if chunk > cfg.Virt && cfg.Clusters > 1 {
			chunk = cfg.Virt
		}
		if cfg.Policy == PolicyScatter {
			chunk = 1
		}

		pes := clusterRing(cfg, home)
		for i, inst := range order {
			slot := i / chunk
			if slot >= len(pes) {
				// Wrapped the whole machine: reuse PEs round-robin
				// (oversubscription).
				slot %= len(pes)
			}
			a := pes[slot]
			loc[inst] = a
			*p.bound(a)++
		}
		p.loc = append(p.loc, loc)
		p.home = append(p.home, home)
	}
	return p, nil
}

// Loc returns the PE hosting instruction inst of the given thread.
func (p *Placement) Loc(thread uint32, inst isa.InstID) PEAddr {
	return p.loc[thread][inst]
}

// Home returns a thread's home cluster (its store buffer's location).
func (p *Placement) Home(thread uint32) int { return p.home[thread] }

// Bound returns how many instructions (across threads) are bound to a PE.
func (p *Placement) Bound(a PEAddr) int { return *p.bound(a) }

// MaxBound returns the largest per-PE binding count, a proxy for
// instruction-store pressure.
func (p *Placement) MaxBound() int {
	m := 0
	for _, n := range p.perPE {
		if n > m {
			m = n
		}
	}
	return m
}

// clusterRing lists every PE in the machine starting at the home cluster,
// snaking through pods and domains, then continuing cluster by cluster.
func clusterRing(cfg Config, home int) []PEAddr {
	pes := make([]PEAddr, 0, cfg.Clusters*cfg.Domains*cfg.PEs)
	for ci := 0; ci < cfg.Clusters; ci++ {
		c := (home + ci) % cfg.Clusters
		for d := 0; d < cfg.Domains; d++ {
			for pe := 0; pe < cfg.PEs; pe++ {
				pes = append(pes, PEAddr{Cluster: c, Domain: d, PE: pe})
			}
		}
	}
	return pes
}

// dfsOrder returns the instructions in depth-first dataflow order starting
// from the parameter targets, so chains of dependent instructions are
// contiguous. Unreached instructions (if any) are appended in index order.
func dfsOrder(prog *isa.Program) []isa.InstID {
	visited := make([]bool, len(prog.Insts))
	order := make([]isa.InstID, 0, len(prog.Insts))
	var visit func(id isa.InstID)
	visit = func(id isa.InstID) {
		if visited[id] {
			return
		}
		visited[id] = true
		order = append(order, id)
		in := &prog.Insts[id]
		for _, t := range in.Dests {
			visit(t.Inst)
		}
		for _, t := range in.DestsT {
			visit(t.Inst)
		}
	}
	for _, pr := range prog.Params {
		for _, t := range pr.Targets {
			visit(t.Inst)
		}
	}
	for i := range prog.Insts {
		if !visited[i] {
			visit(isa.InstID(i))
		}
	}
	return order
}
