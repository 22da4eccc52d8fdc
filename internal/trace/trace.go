// Package trace is the simulator's cycle-level observability layer: a
// zero-overhead-when-disabled event recorder with typed events for PE
// fires and stalls, matching-table inserts and evictions, operand and
// memory messages per interconnect level, cache misses and fills, and
// store-buffer issue/commit activity.
//
// A nil *Recorder is the disabled state: every recording method nil-checks
// its receiver and returns immediately, so instrumented hot paths cost one
// predictable branch and zero allocations when tracing is off. When
// enabled, events land in a preallocated ring buffer (no per-event
// allocation; the newest events win when the ring wraps) and feed two
// aggregations that never drop data: per-interval counter time series and
// per-tile / per-link totals.
//
// Two sinks render a recorded run:
//
//   - WriteChromeTrace emits Chrome trace-event JSON (the Perfetto /
//     chrome://tracing format), one process per cluster and one thread
//     track per PE, per domain NET pseudo-PE, and per cluster-level unit
//     (store buffer, cache, grid switch).
//   - WriteCounterCSV emits one row per cycle interval with fire, stall,
//     message, matching, cache and store-buffer counts, for plotting
//     utilization and traffic over time.
package trace

import "sort"

// Kind is the typed event taxonomy.
type Kind uint8

// Event kinds.
const (
	KindPEFire      Kind = iota // a PE dispatched an instruction (Dur = exec latency)
	KindPEStall                 // a PE pipeline stall (Level = StallReason, Dur = length)
	KindMatchInsert             // a token was written into a matching table
	KindMatchEvict              // entries displaced to the in-memory overflow table (Arg = count)
	KindMsg                     // an operand/memory message (Level = traffic level, Arg2 = class)
	KindCacheMiss               // a cache miss (Level = 1 or 2, Arg = line address)
	KindCacheFill               // a cache fill  (Level = 1 or 2, Arg = line address)
	KindSBIssue                 // the store buffer released a wave-ordered op (Level = issue kind)
	KindSBCommit                // a wave completed in the store buffer
	KindNetHop                  // a NET pseudo-PE forwarded an operand
	KindGridMsg                 // the inter-cluster grid delivered a message (Arg = hops, Arg2 = latency)
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPEFire:
		return "fire"
	case KindPEStall:
		return "stall"
	case KindMatchInsert:
		return "match-insert"
	case KindMatchEvict:
		return "match-evict"
	case KindMsg:
		return "msg"
	case KindCacheMiss:
		return "cache-miss"
	case KindCacheFill:
		return "cache-fill"
	case KindSBIssue:
		return "sb-issue"
	case KindSBCommit:
		return "sb-commit"
	case KindNetHop:
		return "net-hop"
	case KindGridMsg:
		return "grid-msg"
	}
	return "event"
}

// StallReason classifies KindPEStall events (carried in Event.Level).
type StallReason uint8

// Stall reasons.
const (
	StallIStoreMiss StallReason = iota // instruction-store miss fetch
	StallOutQ                          // EXECUTE blocked on a full output queue
	StallReject                        // token refused at INPUT (k-bound or bank conflict)
)

// String names the reason.
func (s StallReason) String() string {
	switch s {
	case StallIStoreMiss:
		return "istore-miss"
	case StallOutQ:
		return "outq-full"
	case StallReject:
		return "input-reject"
	}
	return "stall"
}

// Traffic levels, mirroring sim.TrafficLevel (trace cannot import sim).
const (
	LevelSelf    = 0
	LevelPod     = 1
	LevelDomain  = 2
	LevelCluster = 3
	LevelGrid    = 4
	NumLevels    = 5
)

// Message classes, mirroring sim.TrafficClass.
const (
	ClassOperand = 0
	ClassMemory  = 1
)

// LevelName names a traffic level as in Figure 8.
func LevelName(l int) string {
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
	return "level"
}

// Event is one recorded occurrence. The struct is fixed-size and lives in
// the recorder's preallocated ring: recording never allocates.
type Event struct {
	Cycle uint64
	Arg   uint64 // kind-specific: instruction id, line address, hop count, ...
	Arg2  uint32 // kind-specific: message class, grid latency, ...
	Dur   uint32 // duration in cycles for fires and stalls
	Kind  Kind
	Level uint8 // traffic level, cache level, stall reason or issue kind
	// Source tile. Cluster-level units (store buffer, cache, grid) use
	// Domain = 0xff to mark "no domain"; the sinks give them their own
	// tracks.
	Cluster uint16
	Domain  uint8
	PE      uint8
}

// NoDomain marks a cluster-level event with no owning domain/PE.
const NoDomain = 0xff

// Interval is one bucket of the per-interval counter time series.
type Interval struct {
	Start        uint64 // first cycle of the bucket
	Fires        uint64
	Stalls       uint64
	Msgs         [NumLevels]uint64 // operand messages per traffic level
	MemMsgs      uint64            // memory/coherence messages, all levels
	MatchInserts uint64
	MatchEvicts  uint64
	L1Misses     uint64
	L2Misses     uint64
	Fills        uint64
	SBIssues     uint64
	SBCommits    uint64
	// Active-set scheduler occupancy: component visits summed over the
	// bucket (PE phase visits, domain-bus ticks, store-buffer ticks).
	// Dividing by the bucket width gives the mean work-list size — how
	// sparse the machine actually is. Zero under the full-scan scheduler.
	SchedPEs     uint64
	SchedDomains uint64
	SchedSBs     uint64
}

// Options sizes a recorder.
type Options struct {
	// Capacity is the event ring size; when full, the oldest events are
	// overwritten (the aggregations never drop). 0 means 1<<20.
	Capacity int
	// Interval is the counter-bucket width in cycles. 0 means 1024.
	Interval uint64
}

// Recorder collects a run's events. The zero value is not usable: create
// one with New. A nil Recorder is valid everywhere and records nothing.
type Recorder struct {
	opts Options

	clusters, domains, pes int

	ring    []Event
	head    int // next write position
	n       int // live events (<= len(ring))
	dropped uint64

	maxCycle  uint64
	intervals []Interval

	peFires  []uint64 // global PE index -> fires
	peStalls []uint64 // global PE index -> stall cycles
	links    []uint64 // src*clusters+dst -> grid messages delivered
}

// New creates a recorder. Bind must be called (the simulator does this)
// before tile-indexed events are recorded.
func New(opts Options) *Recorder {
	if opts.Capacity <= 0 {
		opts.Capacity = 1 << 20
	}
	if opts.Interval == 0 {
		opts.Interval = 1024
	}
	return &Recorder{
		opts: opts,
		ring: make([]Event, opts.Capacity),
	}
}

// Bind sizes the per-tile aggregations for a machine shape. The simulator
// calls it from sim.New; calling it again resets the recorder for a fresh
// run.
func (r *Recorder) Bind(clusters, domains, pes int) {
	if r == nil {
		return
	}
	r.clusters, r.domains, r.pes = clusters, domains, pes
	r.head, r.n, r.dropped, r.maxCycle = 0, 0, 0, 0
	r.intervals = r.intervals[:0]
	r.peFires = make([]uint64, clusters*domains*pes)
	r.peStalls = make([]uint64, clusters*domains*pes)
	r.links = make([]uint64, clusters*clusters)
}

// Enabled reports whether the recorder collects events (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Interval returns the counter-bucket width in cycles.
func (r *Recorder) Interval() uint64 { return r.opts.Interval }

// Len returns the number of events currently held in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns how many events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// MaxCycle returns the latest cycle any event was recorded at.
func (r *Recorder) MaxCycle() uint64 {
	if r == nil {
		return 0
	}
	return r.maxCycle
}

// Events calls fn for every retained event in recording order (oldest
// first).
func (r *Recorder) Events(fn func(Event)) {
	if r == nil {
		return
	}
	start := r.head - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		fn(r.ring[(start+i)%len(r.ring)])
	}
}

// record appends one event to the ring and advances the aggregate clock.
func (r *Recorder) record(ev Event) {
	r.ring[r.head] = ev
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
	if r.n < len(r.ring) {
		r.n++
	} else {
		r.dropped++
	}
	if ev.Cycle > r.maxCycle {
		r.maxCycle = ev.Cycle
	}
}

// bucket returns the interval counter bucket for a cycle, growing the
// series as the run advances.
func (r *Recorder) bucket(cycle uint64) *Interval {
	idx := int(cycle / r.opts.Interval)
	for len(r.intervals) <= idx {
		r.intervals = append(r.intervals, Interval{
			Start: uint64(len(r.intervals)) * r.opts.Interval,
		})
	}
	return &r.intervals[idx]
}

// Intervals returns the counter time series: one bucket per Interval()
// cycles from cycle 0 through the last recorded event.
func (r *Recorder) Intervals() []Interval {
	if r == nil {
		return nil
	}
	// Materialize trailing empty buckets so one row exists per elapsed
	// interval even if the tail was quiet.
	r.bucket(r.maxCycle)
	return r.intervals
}

// peIndex flattens a tile address.
func (r *Recorder) peIndex(cluster, domain, pe int) int {
	return (cluster*r.domains+domain)*r.pes + pe
}

// --- recording methods (all nil-safe, allocation-free) ------------------

// PEFire records an instruction dispatch at a PE. dur is the execution
// latency in cycles; inst identifies the static instruction.
func (r *Recorder) PEFire(cycle uint64, cluster, domain, pe int, inst int32, dur int) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindPEFire, Arg: uint64(uint32(inst)), Dur: uint32(dur),
		Cluster: uint16(cluster), Domain: uint8(domain), PE: uint8(pe),
	})
	r.bucket(cycle).Fires++
	if i := r.peIndex(cluster, domain, pe); i >= 0 && i < len(r.peFires) {
		r.peFires[i]++
	}
}

// PEStall records a pipeline stall at a PE lasting dur cycles.
func (r *Recorder) PEStall(cycle uint64, cluster, domain, pe int, reason StallReason, dur int) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindPEStall, Level: uint8(reason), Dur: uint32(dur),
		Cluster: uint16(cluster), Domain: uint8(domain), PE: uint8(pe),
	})
	r.bucket(cycle).Stalls++
	if i := r.peIndex(cluster, domain, pe); i >= 0 && i < len(r.peStalls) {
		r.peStalls[i] += uint64(dur)
	}
}

// MatchInsert records a token written into a PE's matching table.
func (r *Recorder) MatchInsert(cycle uint64, cluster, domain, pe int, inst int32) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindMatchInsert, Arg: uint64(uint32(inst)),
		Cluster: uint16(cluster), Domain: uint8(domain), PE: uint8(pe),
	})
	r.bucket(cycle).MatchInserts++
}

// MatchEvict records count entries displaced from a PE's matching table to
// the in-memory overflow table.
func (r *Recorder) MatchEvict(cycle uint64, cluster, domain, pe int, count int) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindMatchEvict, Arg: uint64(count),
		Cluster: uint16(cluster), Domain: uint8(domain), PE: uint8(pe),
	})
	r.bucket(cycle).MatchEvicts += uint64(count)
}

// Message records one operand or memory message at the interconnect level
// that carries it. The source tile attributes the event; dstCluster feeds
// the inter-cluster link accounting for LevelGrid messages.
func (r *Recorder) Message(cycle uint64, level, class, cluster, domain, pe, dstCluster int) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindMsg, Level: uint8(level),
		Arg: uint64(dstCluster), Arg2: uint32(class),
		Cluster: uint16(cluster), Domain: uint8(domain), PE: uint8(pe),
	})
	b := r.bucket(cycle)
	if class == ClassOperand {
		b.Msgs[level]++
	} else {
		b.MemMsgs++
	}
}

// CacheMiss records a miss at cache level 1 or 2. Level-2 misses are
// attributed to the line's home bank cluster.
func (r *Recorder) CacheMiss(cycle uint64, cluster, level int, line uint64) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindCacheMiss, Level: uint8(level), Arg: line,
		Cluster: uint16(cluster), Domain: NoDomain,
	})
	b := r.bucket(cycle)
	if level == 1 {
		b.L1Misses++
	} else {
		b.L2Misses++
	}
}

// CacheFill records a line installed at cache level 1 or 2.
func (r *Recorder) CacheFill(cycle uint64, cluster, level int, line uint64) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindCacheFill, Level: uint8(level), Arg: line,
		Cluster: uint16(cluster), Domain: NoDomain,
	})
	r.bucket(cycle).Fills++
}

// SBIssue records the store buffer releasing one wave-ordered operation to
// the memory system. kind is the storebuf issue kind (load/store/nop).
func (r *Recorder) SBIssue(cycle uint64, cluster, kind int, addr uint64) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindSBIssue, Level: uint8(kind), Arg: addr,
		Cluster: uint16(cluster), Domain: NoDomain,
	})
	r.bucket(cycle).SBIssues++
}

// SchedOccupancy records one active-set scheduler cycle's work-list
// sizes: how many PE phase slots, domain buses, and store buffers were
// visited. Counter-only (no ring event — this fires every cycle and
// would crowd out everything else).
func (r *Recorder) SchedOccupancy(cycle uint64, pes, domains, sbs int) {
	if r == nil {
		return
	}
	b := r.bucket(cycle)
	b.SchedPEs += uint64(pes)
	b.SchedDomains += uint64(domains)
	b.SchedSBs += uint64(sbs)
}

// SBCommit records a wave completing (all its memory ops issued) at a
// cluster's store buffer.
func (r *Recorder) SBCommit(cycle uint64, cluster int, thread, wave uint32) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindSBCommit, Arg: uint64(thread)<<32 | uint64(wave),
		Cluster: uint16(cluster), Domain: NoDomain,
	})
	r.bucket(cycle).SBCommits++
}

// NetHop records a domain's NET pseudo-PE forwarding one operand toward a
// sibling domain or the grid.
func (r *Recorder) NetHop(cycle uint64, cluster, domain, dstCluster int) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindNetHop, Arg: uint64(dstCluster),
		Cluster: uint16(cluster), Domain: uint8(domain), PE: uint8(r.pes), // NET track
	})
}

// GridDeliver records the inter-cluster network delivering a message,
// attributing it to the src->dst link.
func (r *Recorder) GridDeliver(cycle uint64, src, dst, vc, hops int, lat uint64) {
	if r == nil {
		return
	}
	r.record(Event{
		Cycle: cycle, Kind: KindGridMsg, Level: uint8(vc),
		Arg: uint64(hops), Arg2: uint32(lat),
		Cluster: uint16(dst), Domain: NoDomain,
	})
	if r.links != nil && src < r.clusters && dst < r.clusters {
		r.links[src*r.clusters+dst]++
	}
}

// --- summaries -----------------------------------------------------------

// TileCount is one PE's aggregate activity.
type TileCount struct {
	Cluster, Domain, PE int
	Fires               uint64
	StallCycles         uint64
}

// HottestPEs returns the n busiest PEs by fire count (ties broken by tile
// index, so the ordering is deterministic).
func (r *Recorder) HottestPEs(n int) []TileCount {
	if r == nil || len(r.peFires) == 0 {
		return nil
	}
	all := make([]TileCount, 0, len(r.peFires))
	for i, f := range r.peFires {
		if f == 0 && r.peStalls[i] == 0 {
			continue
		}
		all = append(all, TileCount{
			Cluster:     i / (r.domains * r.pes),
			Domain:      (i / r.pes) % r.domains,
			PE:          i % r.pes,
			Fires:       f,
			StallCycles: r.peStalls[i],
		})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Fires != all[b].Fires {
			return all[a].Fires > all[b].Fires
		}
		ia := (all[a].Cluster*r.domains+all[a].Domain)*r.pes + all[a].PE
		ib := (all[b].Cluster*r.domains+all[b].Domain)*r.pes + all[b].PE
		return ia < ib
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// LinkCount is one inter-cluster link's delivered-message total.
type LinkCount struct {
	Src, Dst int
	Msgs     uint64
}

// HottestLinks returns the n busiest src->dst inter-cluster links by
// delivered grid messages (deterministic ordering). A cluster's grid
// traffic to itself (0-hop memory messages) crosses no link and is not
// listed.
func (r *Recorder) HottestLinks(n int) []LinkCount {
	if r == nil || len(r.links) == 0 {
		return nil
	}
	var all []LinkCount
	for i, m := range r.links {
		if m == 0 || i/r.clusters == i%r.clusters {
			continue
		}
		all = append(all, LinkCount{Src: i / r.clusters, Dst: i % r.clusters, Msgs: m})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Msgs != all[b].Msgs {
			return all[a].Msgs > all[b].Msgs
		}
		if all[a].Src != all[b].Src {
			return all[a].Src < all[b].Src
		}
		return all[a].Dst < all[b].Dst
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}
