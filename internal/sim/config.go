// Package sim is the cycle-level WaveScalar processor simulator: it
// assembles processing elements (pods, domains), wave-ordered store
// buffers, the cache hierarchy, and the hierarchical interconnect into a
// full processor, executes WaveScalar programs on it, and reports AIPC and
// the traffic/latency statistics the paper's evaluation uses.
package sim

import (
	"fmt"

	"wavescalar/internal/area"
	"wavescalar/internal/cache"
	"wavescalar/internal/match"
	"wavescalar/internal/place"
	"wavescalar/internal/trace"
)

// Config describes one WaveScalar processor configuration plus the
// microarchitectural knobs the paper ablates.
type Config struct {
	// Arch are the seven architectural parameters of the area model.
	Arch area.Params

	// Matching table.
	K          int // k-loop bound and matching hash parameter
	MatchAssoc int // set associativity (2 in the final design)
	MatchBanks int // banks (4; at most 8)
	// OverflowPenalty is the matching-table miss cost: cycles to retrieve
	// a displaced partial match from the in-memory table.
	OverflowPenalty int

	// Instruction store.
	// InstMissPenalty is the dispatch stall for a non-resident
	// instruction (~3x a matching-table miss, per the paper).
	InstMissPenalty int

	// Placement selects the instruction placement policy (chunked
	// depth-first by default; place.PolicyScatter is the locality
	// ablation).
	Placement place.Policy

	// Pipeline.
	PodSize     int  // PEs sharing a bypass network (2)
	OutQCap     int  // PE output queue entries (4)
	SpecFire    bool // speculative scheduling of local consumers
	InputWindow int  // tokens scanned per cycle at INPUT (arrival reordering depth)

	// Store buffer.
	SBContexts int // concurrent wave contexts (4)
	PSQs       int // partial store queues (2)
	PSQEntries int // entries per PSQ (4)
	SBPipeLat  int // processing pipeline (3)

	// Memory hierarchy.
	L1Lat   int // L1 hit (3: 2 SRAM + 1 processing)
	L1Ports int // L1 accesses per cycle (4)
	L2Lat   int // L2 hit at the bank (20; distance adds network cycles)
	MemLat  int // main memory (200)

	// Inter-cluster network.
	NocBW   int // operands per port per cycle (2)
	NocQCap int // output queue entries per VC (8)

	// Pseudo-PEs.
	NetPEBW int // operands per cycle through a NET pseudo-PE (1)

	// Run control.
	MaxCycles uint64 // hard stop; 0 means a large default
	// StallLimit aborts when no instruction dispatches for this many
	// cycles (deadlock detector); 0 means a large default.
	StallLimit uint64

	// Trace, when non-nil, records cycle-level events (PE fires and
	// stalls, matching-table activity, messages per interconnect level,
	// cache misses/fills, store-buffer issue/commit) for the trace sinks.
	// Nil disables tracing at zero cost on the hot path.
	Trace *trace.Recorder
}

// Baseline returns the paper's Table 1 configuration for the given
// architectural parameters.
func Baseline(arch area.Params) Config {
	return Config{
		Arch:            arch,
		K:               4,
		MatchAssoc:      2,
		MatchBanks:      4,
		OverflowPenalty: 12,
		InstMissPenalty: 36,
		PodSize:         2,
		OutQCap:         4,
		SpecFire:        true,
		InputWindow:     32,
		SBContexts:      4,
		PSQs:            2,
		PSQEntries:      4,
		SBPipeLat:       3,
		L1Lat:           3,
		L1Ports:         4,
		L2Lat:           20,
		MemLat:          200,
		NocBW:           2,
		NocQCap:         8,
		NetPEBW:         1,
		MaxCycles:       200_000_000,
		StallLimit:      1_000_000,
	}
}

// BaselineArch is the Table 1 machine: one cluster of 4 domains of 8 PEs,
// 128-entry matching tables and instruction stores, 32KB L1 (the paper's
// baseline), and a 1MB L2.
func BaselineArch() area.Params {
	return area.Params{
		Clusters: 1, Domains: 4, PEs: 8,
		Virt: 128, Match: 128,
		L1KB: 32, L2MB: 1,
	}
}

// lineBytes is the data-cache line size, the paper's 128 bytes.
const lineBytes = 128

// CacheConfig is the data-memory hierarchy the processor builds for c:
// 128-byte lines and a 4-way L1.
func (c Config) CacheConfig() cache.Config {
	return cache.Config{
		Clusters: c.Arch.Clusters, L1KB: c.Arch.L1KB, LineBytes: lineBytes, L1Assoc: 4,
		L1Lat: c.L1Lat, L1Ports: c.L1Ports, L2MB: c.Arch.L2MB,
		L2Lat: c.L2Lat, MemLat: c.MemLat, Trace: c.Trace,
	}
}

// maxMatchBanks bounds MatchBanks: a matching table stamps its banks in a
// fixed array in its header (match.MaxBanks).
const maxMatchBanks = match.MaxBanks

// Validate checks the configuration for structural sanity. The simulator
// accepts shapes outside the area model's ranges (the Table 4 tuning
// procedure uses an effectively infinite matching table); range policing
// belongs to the design-space enumeration.
func (c Config) Validate() error {
	if c.Arch.Clusters <= 0 || c.Arch.Domains <= 0 || c.Arch.PEs <= 0 ||
		c.Arch.Virt <= 0 || c.Arch.Match <= 0 || c.Arch.L1KB <= 0 || c.Arch.L2MB < 0 {
		return fmt.Errorf("sim: non-positive architecture parameter: %+v", c.Arch)
	}
	// A fixed table in Config field order: the first bad knob named is
	// always the same one (the text reaches API bodies and cached
	// Cell.Err), and a valid configuration allocates nothing.
	pos := [...]struct {
		name string
		v    int
	}{
		{"K", c.K}, {"MatchAssoc", c.MatchAssoc}, {"MatchBanks", c.MatchBanks},
		{"OverflowPenalty", c.OverflowPenalty}, {"InstMissPenalty", c.InstMissPenalty},
		{"PodSize", c.PodSize}, {"OutQCap", c.OutQCap}, {"InputWindow", c.InputWindow},
		{"SBContexts", c.SBContexts}, {"SBPipeLat", c.SBPipeLat + 1},
		{"L1Lat", c.L1Lat}, {"L1Ports", c.L1Ports}, {"L2Lat", c.L2Lat}, {"MemLat", c.MemLat},
		{"NocBW", c.NocBW}, {"NocQCap", c.NocQCap}, {"NetPEBW", c.NetPEBW},
	}
	for _, p := range pos {
		if p.v <= 0 {
			return fmt.Errorf("sim: %s must be positive, got %d", p.name, p.v)
		}
	}
	if c.PSQs < 0 || c.PSQEntries < 0 {
		return fmt.Errorf("sim: negative PSQ configuration")
	}
	if c.MatchBanks > maxMatchBanks {
		return fmt.Errorf("sim: MatchBanks must be at most %d, got %d", maxMatchBanks, c.MatchBanks)
	}
	if c.Arch.Match%c.MatchAssoc != 0 {
		return fmt.Errorf("sim: matching entries %d not divisible by associativity %d",
			c.Arch.Match, c.MatchAssoc)
	}
	if c.PodSize != 1 && c.PodSize != 2 {
		return fmt.Errorf("sim: pod size must be 1 or 2, got %d", c.PodSize)
	}
	if c.Arch.PEs%c.PodSize != 0 {
		return fmt.Errorf("sim: %d PEs per domain not divisible into pods of %d",
			c.Arch.PEs, c.PodSize)
	}
	return nil
}

// withDefaults fills run-control defaults.
func (c Config) withDefaults() Config {
	if c.MaxCycles == 0 {
		c.MaxCycles = 200_000_000
	}
	if c.StallLimit == 0 {
		c.StallLimit = 1_000_000
	}
	return c
}
