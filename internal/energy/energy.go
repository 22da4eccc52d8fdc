// Package energy estimates a WaveScalar processor's dynamic and leakage
// energy from a run's event counts and the area model.
//
// This is an extension beyond the paper, which defers power to future work
// ("the tiled and hierarchical architecture would lend itself easily to
// multiple voltage and frequency domains"). The model is deliberately
// simple and transparent: each microarchitectural event carries a
// per-event energy calibrated to 90nm order-of-magnitude literature values
// (SRAM access energy scaling with capacity, wire energy scaling with the
// distance class of the interconnect level, a leakage term proportional to
// area and time). It is intended for comparing configurations against each
// other — the same role the area model plays for silicon — not for
// absolute wattage.
package energy

import (
	"fmt"
	"strings"

	"wavescalar/internal/area"
	"wavescalar/internal/sim"
)

// The per-event energy constants (picojoules at 90nm).
const (
	// aluOp is one integer ALU operation; FPU operations cost fpuFactor
	// times more.
	aluOp     = 0.8
	fpuFactor = 4.0
	// sramBase and sramPerKB give the access energy of an SRAM structure
	// of a given capacity: E = sramBase + sramPerKB * KB. Applied to
	// matching tables, instruction stores and data caches.
	sramBase  = 0.4
	sramPerKB = 0.25
	// Wire energies per message by interconnect level (distance class).
	wirePod     = 0.1
	wireDomain  = 0.6
	wireCluster = 1.8
	wireGrid    = 6.0 // per hop is folded into the average
	// dramAccess is one main-memory access.
	dramAccess = 2000
	// leakagePerMM2Cycle is static leakage per mm² per cycle.
	leakagePerMM2Cycle = 0.015
)

// Breakdown is the estimated energy by component, in picojoules.
type Breakdown struct {
	Execute     float64 // ALU + FPU operations
	Matching    float64 // matching table reads/writes + overflow traffic
	InstStore   float64 // instruction store reads and refills
	Network     float64 // operand and memory message transport
	StoreBuffer float64 // wave-ordering processing
	Caches      float64 // L1/L2 accesses
	DRAM        float64 // main memory
	Leakage     float64 // area x cycles
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.Execute + b.Matching + b.InstStore + b.Network +
		b.StoreBuffer + b.Caches + b.DRAM + b.Leakage
}

// EPI returns energy per countable instruction in picojoules.
func (b Breakdown) EPI(countable uint64) float64 {
	if countable == 0 {
		return 0
	}
	return b.Total() / float64(countable)
}

// sramAccess returns the access energy of a structure of kb kilobytes.
func sramAccess(kb float64) float64 {
	return sramBase + sramPerKB*kb
}

// Estimate computes the energy breakdown for a run on a configuration.
func Estimate(st *sim.Stats, arch area.Params) Breakdown {
	var b Breakdown

	// Execution: countable plus overhead instructions all use the ALU;
	// assume the workload's FP share is reflected in the FPU factor
	// applied to one third of countable work (a fixed blend keeps the
	// model free of per-opcode accounting; configuration comparisons are
	// unaffected because the workload is held constant).
	intOps := float64(st.Dynamic)
	b.Execute = intOps*aluOp + float64(st.Countable)/3*aluOp*(fpuFactor-1)

	// Matching: each insert reads and writes one set of the table; each
	// overflow hit adds a round trip to memory-resident state (costed as
	// an L1-sized access); evictions write it.
	matchKB := float64(arch.Match) * 24 / 1024 // ~3 operands + tag per entry
	perMatch := 2 * sramAccess(matchKB)
	b.Matching = float64(st.Match.Inserts)*perMatch +
		float64(st.Match.Evictions+st.Match.OverflowHits)*sramAccess(float64(arch.L1KB))

	// Instruction store: one read per dispatch; misses refill a line.
	istKB := float64(arch.Virt) * 16 / 1024
	b.InstStore = float64(st.Dispatches)*sramAccess(istKB) +
		float64(st.IStoreMisses)*8*sramAccess(istKB)

	// Network: per-message wire energy by level; grid messages also pay
	// the measured average hop count.
	tr := func(l sim.TrafficLevel) float64 {
		return float64(st.Traffic[l][sim.ClassOperand] + st.Traffic[l][sim.ClassMemory])
	}
	avgHops := 1.0
	if st.Noc.Delivered > 0 {
		avgHops = float64(st.Noc.TotalHops)/float64(st.Noc.Delivered) + 1
	}
	b.Network = tr(sim.LevelSelf)*wirePod/2 +
		tr(sim.LevelPod)*wirePod +
		tr(sim.LevelDomain)*wireDomain +
		tr(sim.LevelCluster)*wireCluster +
		tr(sim.LevelGrid)*wireGrid*avgHops

	// Store buffer: each arrival is processed by the 3-stage pipeline and
	// touches the ordering table.
	b.StoreBuffer = float64(st.StoreBuf.Arrivals) * 3 * sramAccess(2)

	// Caches: L1 accesses at L1 size; L2 at a fixed large-bank cost.
	b.Caches = float64(st.Cache.Accesses)*sramAccess(float64(arch.L1KB)) +
		float64(st.Cache.L2Hits+st.Cache.L2Misses)*sramAccess(256)

	// DRAM on L2 misses.
	b.DRAM = float64(st.Cache.L2Misses) * dramAccess

	// Leakage over the whole die for the run's duration.
	b.Leakage = area.Total(arch) * float64(st.Cycles) * leakagePerMM2Cycle

	return b
}

// Format renders the breakdown with percentages.
func (b Breakdown) Format(countable uint64) string {
	total := b.Total()
	var sb strings.Builder
	row := func(name string, v float64) {
		pct := 0.0
		if total > 0 {
			pct = 100 * v / total
		}
		fmt.Fprintf(&sb, "  %-14s %12.0f pJ  (%.1f%%)\n", name, v, pct)
	}
	row("execute", b.Execute)
	row("matching", b.Matching)
	row("inst store", b.InstStore)
	row("network", b.Network)
	row("store buffer", b.StoreBuffer)
	row("caches", b.Caches)
	row("DRAM", b.DRAM)
	row("leakage", b.Leakage)
	fmt.Fprintf(&sb, "  %-14s %12.0f pJ", "total", total)
	if countable > 0 {
		fmt.Fprintf(&sb, "  (%.1f pJ/instruction)", b.EPI(countable))
	}
	sb.WriteByte('\n')
	return sb.String()
}
