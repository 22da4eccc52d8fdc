package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"wavescalar/internal/cache"
	"wavescalar/internal/match"
	"wavescalar/internal/noc"
	"wavescalar/internal/storebuf"
)

// TrafficLevel classifies a message by the lowest interconnect level that
// carries it (Figure 8's x-axis categories).
type TrafficLevel int

// Traffic levels, innermost first.
const (
	LevelSelf    TrafficLevel = iota // producer PE to itself
	LevelPod                         // to the pod partner (bypass)
	LevelDomain                      // over the intra-domain bus
	LevelCluster                     // over the intra-cluster interconnect
	LevelGrid                        // over the inter-cluster network
	numLevels
)

// String names the level as in Figure 8.
func (l TrafficLevel) String() string {
	switch l {
	case LevelSelf:
		return "intra-PE"
	case LevelPod:
		return "intra-pod"
	case LevelDomain:
		return "intra-domain"
	case LevelCluster:
		return "intra-cluster"
	case LevelGrid:
		return "inter-cluster"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// TrafficClass splits messages into operand data and memory/coherence
// traffic (Figure 8's shading).
type TrafficClass int

// Traffic classes.
const (
	ClassOperand TrafficClass = iota
	ClassMemory
	numClasses
)

// String names the class.
func (c TrafficClass) String() string {
	if c == ClassOperand {
		return "operand"
	}
	return "memory"
}

// Stats aggregates a run's measurements.
type Stats struct {
	Cycles    uint64
	Dynamic   uint64 // dynamic instructions executed (all opcodes)
	Countable uint64 // Alpha-equivalent instructions (AIPC numerator)
	// CountableAtHalt and DynamicAtHalt are Countable and Dynamic at the
	// end of the cycle the last thread halted in, the last of the Cycles
	// AIPC divides by; the rest ran in the post-halt drain. Outside the v1
	// digest.
	CountableAtHalt, DynamicAtHalt uint64

	// Traffic[level][class] counts messages.
	Traffic [numLevels][numClasses]uint64

	// Component aggregates.
	Match                    match.Stats
	IStoreHits, IStoreMisses uint64
	StoreBuf                 storebuf.Stats
	Cache                    cache.Stats
	Noc                      noc.Stats

	// Memory access latency observed at the store buffer boundary
	// (issue to completion), for loads and stores through the cache.
	MemAccesses uint64
	MemLatTotal uint64

	// Operand delivery latency: producer execution completion to
	// matching-table write, over every operand message (bypass counts as
	// one cycle; memory-response tokens are excluded — they are tracked
	// by MemLatTotal).
	OperandLatTotal uint64
	OperandCount    uint64

	// Pipeline events.
	Dispatches   uint64
	SpecFires    uint64 // back-to-back bypass executions
	OutQStalls   uint64 // cycles EXECUTE blocked on a full output queue
	InputRejects uint64 // tokens that failed INPUT acceptance this run
}

// Digest returns a hex SHA-256 over the statistics' v1 pre-image
// (appendStatsPreimage). Two runs with the same digest produced identical
// v1 statistics; the golden-determinism CI check and the
// scheduler-equivalence tests compare these.
func (s *Stats) Digest() string {
	var buf [1024]byte
	sum := sha256.Sum256(appendStatsPreimage(buf[:0], s))
	return hex.EncodeToString(sum[:])
}

// appendStatsPreimage appends the v1 pre-image: the text fmt's %+v
// printed for Stats when the golden digests were pinned. The fault-path
// counters it held then (four in Noc, and the fault report) were zero on
// every run that could be made without a fault script, and the simulator
// has none since, so they are written as the constant zero text they
// printed. It is written field by field, so no
// field added to Stats or to a nested struct, and no rename or display
// method in another package, moves a digest. A new counter stays outside
// v1; changing what is hashed is a deliberate v2 that re-pins every
// digest. stats_test.go holds this to fmt on a frozen copy of the struct.
func appendStatsPreimage(b []byte, s *Stats) []byte {
	u := func(name string, v uint64) {
		b = append(b, name...)
		b = strconv.AppendUint(b, v, 10)
	}
	u("{Cycles:", s.Cycles)
	u(" Dynamic:", s.Dynamic)
	u(" Countable:", s.Countable)
	b = append(b, " Traffic:["...)
	for l, row := range s.Traffic {
		if l > 0 {
			b = append(b, ' ')
		}
		b = append(b, '[')
		for c, n := range row {
			if c > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(b, n, 10)
		}
		b = append(b, ']')
	}
	m := &s.Match
	u("] Match:{Inserts:", m.Inserts)
	u(" Matches:", m.Matches)
	u(" Evictions:", m.Evictions)
	u(" OverflowHits:", m.OverflowHits)
	u(" KRejects:", m.KRejects)
	u(" BankRejects:", m.BankRejects)
	u("} IStoreHits:", s.IStoreHits)
	u(" IStoreMisses:", s.IStoreMisses)
	sb := &s.StoreBuf
	u(" StoreBuf:{Arrivals:", sb.Arrivals)
	u(" IssuedLoads:", sb.IssuedLoads)
	u(" IssuedStores:", sb.IssuedStores)
	u(" IssuedNops:", sb.IssuedNops)
	u(" PSQAllocs:", sb.PSQAllocs)
	u(" PSQQueued:", sb.PSQQueued)
	u(" PSQStalls:", sb.PSQStalls)
	u(" ContextStalls:", sb.ContextStalls)
	u(" WavesDone:", sb.WavesDone)
	c := &s.Cache
	u("} Cache:{Accesses:", c.Accesses)
	u(" L1Hits:", c.L1Hits)
	u(" L1Misses:", c.L1Misses)
	u(" L1Writebacks:", c.L1Writebacks)
	u(" L2Hits:", c.L2Hits)
	u(" L2Misses:", c.L2Misses)
	u(" Invalidations:", c.Invalidations)
	u(" Downgrades:", c.Downgrades)
	u(" MSHRMerges:", c.MSHRMerges)
	n := &s.Noc
	u("} Noc:{Injected:", n.Injected)
	u(" Delivered:", n.Delivered)
	u(" TotalHops:", n.TotalHops)
	u(" TotalLat:", n.TotalLat)
	u(" InjectFull:", n.InjectFull)
	u(" Blocked:", n.Blocked)
	b = append(b, " Retransmits:0 Rerouted:0 Unroutable:0 LinksDown:0"...)
	u("} MemAccesses:", s.MemAccesses)
	u(" MemLatTotal:", s.MemLatTotal)
	u(" OperandLatTotal:", s.OperandLatTotal)
	u(" OperandCount:", s.OperandCount)
	u(" Dispatches:", s.Dispatches)
	u(" SpecFires:", s.SpecFires)
	u(" OutQStalls:", s.OutQStalls)
	u(" InputRejects:", s.InputRejects)
	b = append(b, " Fault:pes_killed=0 links_down=0 link_flips=0 mem_drops=0 mem_retries=0"...)
	b = append(b, " mem_delays=0 sb_delays=0 insts_migrated=0 tokens_migrated=0 healed=0}"...)
	return b
}

// AIPC returns Alpha-equivalent instructions per cycle.
func (s *Stats) AIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Countable) / float64(s.Cycles)
}

// TrafficTotal returns the total message count.
func (s *Stats) TrafficTotal() uint64 {
	var n uint64
	for l := TrafficLevel(0); l < numLevels; l++ {
		for c := TrafficClass(0); c < numClasses; c++ {
			n += s.Traffic[l][c]
		}
	}
	return n
}

// TrafficShare returns the fraction of messages at or below the level.
func (s *Stats) TrafficShare(level TrafficLevel) float64 {
	total := s.TrafficTotal()
	if total == 0 {
		return 0
	}
	var n uint64
	for l := TrafficLevel(0); l <= level; l++ {
		for c := TrafficClass(0); c < numClasses; c++ {
			n += s.Traffic[l][c]
		}
	}
	return float64(n) / float64(total)
}

// OperandShare returns the fraction of all messages carrying operand data.
func (s *Stats) OperandShare() float64 {
	total := s.TrafficTotal()
	if total == 0 {
		return 0
	}
	var n uint64
	for l := TrafficLevel(0); l < numLevels; l++ {
		n += s.Traffic[l][ClassOperand]
	}
	return float64(n) / float64(total)
}

// AvgOperandLatency returns the mean operand delivery latency in cycles
// (Section 4.3's message-latency metric).
func (s *Stats) AvgOperandLatency() float64 {
	if s.OperandCount == 0 {
		return 0
	}
	return float64(s.OperandLatTotal) / float64(s.OperandCount)
}

// AvgMemLatency returns the mean store-buffer-to-completion latency.
func (s *Stats) AvgMemLatency() float64 {
	if s.MemAccesses == 0 {
		return 0
	}
	return float64(s.MemLatTotal) / float64(s.MemAccesses)
}

// Format renders a human-readable summary.
func (s *Stats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles            %d\n", s.Cycles)
	fmt.Fprintf(&b, "instructions      %d dynamic, %d countable\n", s.Dynamic, s.Countable)
	fmt.Fprintf(&b, "AIPC              %.3f\n", s.AIPC())
	fmt.Fprintf(&b, "traffic           %d messages (%.1f%% operand)\n",
		s.TrafficTotal(), 100*s.OperandShare())
	for l := TrafficLevel(0); l < numLevels; l++ {
		tot := s.Traffic[l][ClassOperand] + s.Traffic[l][ClassMemory]
		if s.TrafficTotal() > 0 {
			fmt.Fprintf(&b, "  %-14s %8d (%.1f%%)\n", l, tot,
				100*float64(tot)/float64(s.TrafficTotal()))
		}
	}
	fmt.Fprintf(&b, "matching          %d matches, %d evictions, %d overflow hits, %d k-rejects\n",
		s.Match.Matches, s.Match.Evictions, s.Match.OverflowHits, s.Match.KRejects)
	fmt.Fprintf(&b, "inst store        %d hits, %d misses\n", s.IStoreHits, s.IStoreMisses)
	fmt.Fprintf(&b, "store buffer      %d loads, %d stores, %d nops, %d psq allocs\n",
		s.StoreBuf.IssuedLoads, s.StoreBuf.IssuedStores, s.StoreBuf.IssuedNops, s.StoreBuf.PSQAllocs)
	fmt.Fprintf(&b, "cache             %d hits, %d misses, %d L2 hits, %d L2 misses, %d invals\n",
		s.Cache.L1Hits, s.Cache.L1Misses, s.Cache.L2Hits, s.Cache.L2Misses, s.Cache.Invalidations)
	fmt.Fprintf(&b, "avg mem latency   %.1f cycles over %d accesses\n", s.AvgMemLatency(), s.MemAccesses)
	fmt.Fprintf(&b, "avg operand lat   %.2f cycles over %d deliveries\n", s.AvgOperandLatency(), s.OperandCount)
	fmt.Fprintf(&b, "spec fires        %d of %d dispatches\n", s.SpecFires, s.Dispatches)
	return b.String()
}
