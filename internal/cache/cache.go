// Package cache implements WaveScalar's data-memory hierarchy
// (Section 3.3.2): per-cluster L1 data caches kept coherent by a
// directory-based MESI protocol, an address-banked L2 distributed across
// the die, and a 200-cycle main memory.
//
// The hierarchy is a timing and traffic model: data values are carried by
// the simulator's flat functional memory, so the protocol here decides
// *when* an access completes and *what messages* cross the inter-cluster
// network, not what value is read. The directory is blocking — each
// request's state transition is atomic when it reaches the home bank —
// which is the standard academic-simulator simplification; invalidation
// and downgrade messages still traverse the real network so coherence
// traffic and its distribution are faithfully counted.
//
// A warm hierarchy allocates nothing. Each coherence message is one
// record that holds its noc.Message and its body, with Payload pointing
// back at the record; records come from a free list and return to it in
// Deliver, which therefore owns the message it is handed. MSHRs recycle
// with their waiter slices, and directory entries, carved from slabs,
// recycle when their line leaves the directory; an entry whose line is
// in the L2 is linked into the L2's LRU list.
package cache

import (
	"fmt"

	"wavescalar/internal/noc"
	"wavescalar/internal/trace"
)

// Config sizes the hierarchy.
type Config struct {
	Clusters  int
	L1KB      int // per-cluster L1 capacity
	LineBytes int // 128 in the paper
	L1Assoc   int // 4-way in the paper
	L1Lat     int // 3-cycle hits
	L1Ports   int // accesses per cycle (4 in the paper)
	L2MB      int // total L2 capacity; 0 means no L2
	L2Lat     int // 20 cycles plus network distance
	MemLat    int // 200 cycles
	// Trace, when non-nil, records L1/L2 misses and fills.
	Trace *trace.Recorder
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Clusters <= 0 || c.Clusters > 64 {
		return fmt.Errorf("cache: clusters = %d", c.Clusters)
	}
	if c.L1KB <= 0 || c.LineBytes <= 0 || c.L1Assoc <= 0 || c.L1Lat <= 0 || c.L1Ports <= 0 {
		return fmt.Errorf("cache: non-positive L1 geometry: %+v", c)
	}
	if c.L2MB < 0 || c.L2Lat <= 0 || c.MemLat <= 0 {
		return fmt.Errorf("cache: bad latencies: %+v", c)
	}
	lines := c.L1KB * 1024 / c.LineBytes
	if lines%c.L1Assoc != 0 || lines < c.L1Assoc {
		return fmt.Errorf("cache: L1 %dKB/%dB lines not divisible into %d ways",
			c.L1KB, c.LineBytes, c.L1Assoc)
	}
	return nil
}

// DoneFunc reports completion of an access to the issuing cluster.
type DoneFunc func(cycle uint64, cluster int, reqID uint64)

// SendFunc injects a message into the inter-cluster network; false means
// the injection queue was full and the system retries next tick.
type SendFunc func(cycle uint64, m *noc.Message) bool

// Stats counts hierarchy events.
type Stats struct {
	Accesses      uint64
	L1Hits        uint64
	L1Misses      uint64
	L1Writebacks  uint64
	L2Hits        uint64
	L2Misses      uint64 // went to main memory
	Invalidations uint64
	Downgrades    uint64
	MSHRMerges    uint64
}

// Line states in an L1.
type state uint8

const (
	invalid state = iota
	shared
	exclusive
	modified
)

// msgKind names what a coherence message asks.
type msgKind uint8

const (
	// dirReq travels L1 -> home directory bank: a miss, or with isWB a
	// victim writeback, which gets no response.
	dirReq msgKind = iota
	// dataResp travels directory -> requesting L1 with the line's grant.
	dataResp
	// invMsg invalidates or downgrades a line an L1 holds.
	invMsg
)

// body is what a coherence message carries; each kind reads its own
// fields.
type body struct {
	kind      msgKind
	line      uint64
	from      int    // dirReq: the requesting cluster
	reqID     uint64 // dirReq, dataResp
	write     bool   // dirReq: the requester wants the line modified
	isWB      bool   // dirReq: victim writeback
	grant     state  // dataResp: shared / exclusive / modified
	delay     uint64 // dataResp: extra cycles (L2/memory/remote-fetch) charged on receipt
	downgrade bool   // invMsg: true M -> S; false drop to invalid
}

// msg is one coherence message: the network message and its body in one
// record, whose Payload points back at the record. Records come from the
// System's free list and return to it when delivered, so a message costs
// no allocation once the list holds as many as are in flight.
type msg struct {
	noc.Message
	body
}

type way struct {
	tag     uint64
	st      state
	touched uint64
}

// mshr merges an L1's outstanding misses to one line. MSHRs recycle
// through the System's free list with their waiter slices' backing
// arrays.
type mshr struct {
	write   bool
	waiters []uint64 // request ids
}

type l1 struct {
	sets      [][]way
	mshrs     map[uint64]*mshr // by line
	portUsed  uint64           // accesses already started this cycle
	portCycle uint64
}

// dirEntry is the directory's record of one line. An entry whose line is
// in the L2 is linked into the L2's LRU list by prev and next. Entries
// are carved from slabs and recycled when their line leaves the
// directory.
type dirEntry struct {
	line       uint64
	inL2       bool
	owner      int    // cluster with M/E copy, -1 if none
	sharers    uint64 // bitmask of clusters with S copies
	prev, next *dirEntry
}

// slabEntries is how many directory entries one slab holds.
const slabEntries = 128

// event is a scheduled completion: at cycle at, cluster's request reqID is
// done.
type event struct {
	at      uint64
	seq     uint64
	cluster int
	reqID   uint64
}

// eventHeap is a hand-rolled binary min-heap: container/heap's interface
// methods box every pushed and popped event, which shows up as the cache's
// only steady-state allocation, so the sift operations are written out.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) popMin() event {
	s := *h
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && s.less(r, l) {
			small = r
		}
		if !s.less(small, i) {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return min
}

// System is the whole data-memory hierarchy.
type System struct {
	cfg     Config
	l1s     []*l1
	dir     map[uint64]*dirEntry // line -> entry (line present in L2 iff mapped)
	l2cap   int                  // lines; 0 means no L2 at all
	done    DoneFunc
	send    SendFunc
	outbox  []*noc.Message
	events  eventHeap
	seq     uint64
	stats   Stats
	numSets int
	// mru and lru are the ends of the L2's LRU list of directory entries,
	// l2Len its length.
	mru, lru *dirEntry
	l2Len    int
	// evictions is Footprint's count of fills that displaced or
	// duplicated a line, l2Evictions its count of L2 installs that
	// displaced one.
	evictions, l2Evictions uint64
	// The free lists: delivered messages, completed MSHRs and dropped
	// directory entries, and the rest of the slab new entries are carved
	// from.
	msgFree  []*msg
	mshrFree []*mshr
	dirFree  []*dirEntry
	dirSlab  []dirEntry
}

// New builds the hierarchy. done receives access completions; send injects
// coherence/memory messages into the network.
func New(cfg Config, done DoneFunc, send SendFunc) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		cfg:   cfg,
		dir:   make(map[uint64]*dirEntry),
		l2cap: cfg.l2Lines(),
		done:  done,
		send:  send,
	}
	s.numSets = cfg.L1KB * 1024 / cfg.LineBytes / cfg.L1Assoc
	for i := 0; i < cfg.Clusters; i++ {
		sets := make([][]way, s.numSets)
		ways := make([]way, s.numSets*cfg.L1Assoc) // one block per L1, not one per set
		for j := range sets {
			sets[j], ways = ways[:cfg.L1Assoc:cfg.L1Assoc], ways[cfg.L1Assoc:]
		}
		s.l1s = append(s.l1s, &l1{sets: sets, mshrs: make(map[uint64]*mshr)})
	}
	return s
}

// Stats returns the hierarchy counters.
func (s *System) Stats() Stats { return s.stats }

// Footprint is what a run left in the hierarchy that says which cache
// twins it is exact on (ExactOn). It is kept outside Stats, so no digest
// depends on it.
type Footprint struct {
	// Evictions counts the fills that displaced a valid line: an L1 fill
	// into a set with no invalid way, and an L2 install into a full L2. A
	// fill of a line the L1 already holds (a write upgrade of a shared
	// copy) counts too: it leaves two ways with one tag, and which of them
	// a lookup finds first depends on where the set's invalid ways are,
	// which the set count changes.
	Evictions uint64
	// L2Evictions counts the L2 installs into a full L2, which Evictions
	// counts too.
	L2Evictions uint64
	// Refetches counts, in a run without evictions, the requests for a
	// line the directory had served before, with no remote owner: an L2
	// hit with an L2, a second memory fetch without one. (With evictions,
	// a line can leave the directory and come back, and its second first
	// fetch counts too.)
	Refetches uint64
	// Lines is how many lines the directory tracks. Without an eviction
	// no line has left it, so this is every line the run fetched.
	Lines int
}

// Footprint reports the run's footprint so far. Each line the directory
// tracks came in with one first fetch, an L2 miss with an L2 or without,
// so the refetches are the L2 hits and misses less those lines.
func (s *System) Footprint() Footprint {
	return Footprint{
		Evictions:   s.evictions,
		L2Evictions: s.l2Evictions,
		Refetches:   s.stats.L2Hits + s.stats.L2Misses - uint64(len(s.dir)),
		Lines:       len(s.dir),
	}
}

// ExactOn reports whether a run on base that left f makes, event for
// event, the run twin would make, so its result stands for twin's. This is
// the whole cache-twin rule: base and twin are equal, or
//
//   - base and twin agree in every field but L1KB and L2MB;
//   - if twin has an L2, it holds the run's Lines;
//   - and either the run had no eviction, twin's L1 is a whole multiple of
//     base's, and if only one of base and twin has an L2 the run had no
//     refetch;
//   - or only the L1 evicted: the L1s are the same size, both base and
//     twin have an L2, and the L2 never evicted.
//
// Why it holds: a run is deterministic, so equal hierarchies run alike.
// Otherwise the hierarchy reads the L1 and L2 sizes only as the L1 set
// count and the L2 capacity, and only when a fill evicts. An L1 with k
// times base's sets splits each of base's sets among k of its own, so it
// never needs to evict either; a line leaves the L2 only by an eviction,
// so an L2 that holds the run's lines is never full when one is
// installed. A first fetch costs L2Lat+MemLat with an L2 or without, and
// a request with a remote owner is served cache to cache either way, so a
// refetch is the one request whose timing depends on whether there is an
// L2. When the L1 evicts, equal L1s evict alike; with an L2 and no L2
// eviction no line leaves the directory (every line is installed in the
// L2 at its first fetch, and only an L2 eviction drops it), so Lines
// counts every install, and installL2 reads the capacity only when the L2
// is full, which an L2 that holds Lines never is. FuzzCacheFamily checks
// the rule, by this method, on random traces; the explore package builds
// its twin reuse on it.
func (f Footprint) ExactOn(base, twin Config) bool {
	if base == twin {
		return true
	}
	l1, twinL1 := base.L1KB, twin.L1KB
	baseL2, twinL2 := base.l2Lines(), twin.l2Lines()
	base.L1KB, base.L2MB, twin.L1KB, twin.L2MB = 0, 0, 0, 0
	if base != twin || l1 <= 0 || (twinL2 > 0 && f.Lines > twinL2) {
		return false
	}
	if f.Evictions == 0 {
		return twinL1%l1 == 0 && (f.Refetches == 0 || (baseL2 == 0) == (twinL2 == 0))
	}
	return twinL1 == l1 && baseL2 > 0 && twinL2 > 0 && f.L2Evictions == 0
}

// l2Lines is the L2's capacity in lines (0 without an L2).
func (c Config) l2Lines() int { return c.L2MB * (1 << 20) / c.LineBytes }

// line maps an address to its line address.
func (s *System) line(addr uint64) uint64 { return addr / uint64(s.cfg.LineBytes) }

// Bank returns the home cluster of a line's L2 bank and directory shard.
func (s *System) Bank(lineAddr uint64) int { return int(lineAddr % uint64(s.cfg.Clusters)) }

// Access starts a load (write=false) or store (write=true) from a
// cluster's store buffer. Completion is reported through the done callback
// with the given reqID.
func (s *System) Access(cycle uint64, cluster int, reqID uint64, addr uint64, write bool) {
	s.stats.Accesses++
	ln := s.line(addr)
	c := s.l1s[cluster]

	// Port limit: the L1 accepts L1Ports accesses per cycle; extras slip
	// by a cycle each.
	if c.portCycle != cycle {
		c.portCycle, c.portUsed = cycle, 0
	}
	delay := uint64(0)
	if c.portUsed >= uint64(s.cfg.L1Ports) {
		delay = c.portUsed / uint64(s.cfg.L1Ports)
	}
	c.portUsed++

	if w := s.lookup(cluster, ln); w != nil {
		if !write || w.st == modified || w.st == exclusive {
			if write {
				w.st = modified
			}
			w.touched = cycle
			s.stats.L1Hits++
			s.schedule(event{at: cycle + delay + uint64(s.cfg.L1Lat), cluster: cluster, reqID: reqID})
			return
		}
		// Write hit on a shared line: upgrade via the directory.
	}
	s.stats.L1Misses++
	if s.cfg.Trace != nil {
		s.cfg.Trace.CacheMiss(cycle, cluster, 1, ln)
	}
	if m := c.mshrs[ln]; m != nil {
		m.waiters = append(m.waiters, reqID)
		if write && !m.write {
			// A write joining a read miss: the fill handler re-requests
			// exclusivity if the grant is insufficient.
			m.write = true
		}
		s.stats.MSHRMerges++
		return
	}
	m := s.newMSHR()
	m.write = write
	m.waiters = append(m.waiters, reqID)
	c.mshrs[ln] = m
	s.post(cluster, s.Bank(ln), body{kind: dirReq, line: ln, from: cluster, reqID: reqID, write: write})
}

// newMSHR returns an MSHR with no waiters from the free list, or a new
// one.
func (s *System) newMSHR() *mshr {
	n := len(s.mshrFree) - 1
	if n < 0 {
		return new(mshr)
	}
	m := s.mshrFree[n]
	s.mshrFree = s.mshrFree[:n]
	m.waiters = m.waiters[:0]
	return m
}

// lookup finds a valid way for the line.
func (s *System) lookup(cluster int, ln uint64) *way {
	set := s.l1s[cluster].sets[ln%uint64(s.numSets)]
	for i := range set {
		if set[i].st != invalid && set[i].tag == ln {
			return &set[i]
		}
	}
	return nil
}

// Deliver handles a message arriving on a cluster's memory port. It takes
// ownership of m, which must be one the System sent: m returns to the
// System's free list and may carry another message the next time the
// System sends, so the caller must not touch it after Deliver.
func (s *System) Deliver(cycle uint64, cluster int, m *noc.Message) {
	r, ok := m.Payload.(*msg)
	if !ok {
		panic(fmt.Sprintf("cache: unknown memory payload %T", m.Payload))
	}
	b := r.body
	s.msgFree = append(s.msgFree, r)
	switch b.kind {
	case dirReq:
		s.handleDirReq(cycle, cluster, b)
	case dataResp:
		s.handleDataResp(cycle, cluster, b)
	case invMsg:
		s.handleInv(cluster, b)
	}
}

// handleDirReq processes a request at the line's home directory bank.
func (s *System) handleDirReq(cycle uint64, bank int, r body) {
	if r.isWB {
		// Victim writeback: the owner gave up its modified copy, which
		// lands in the L2 (when there is one).
		if e, ok := s.dir[r.line]; ok && e.owner == r.from {
			e.owner = -1
			if s.l2cap > 0 && !e.inL2 {
				s.installL2(cycle, e)
			}
			s.maybeDrop(e)
		}
		return
	}
	e := s.dir[r.line]
	if e == nil {
		e = s.newEntry(r.line)
		s.dir[r.line] = e
	}
	extra := uint64(s.cfg.L2Lat)
	switch {
	case e.owner >= 0 && e.owner != r.from:
		// Data comes cache-to-cache from the remote owner; the transfer
		// latency is charged below where the owner is downgraded.
	case e.inL2:
		s.stats.L2Hits++
		s.l2Unlink(e)
		s.l2PushMRU(e)
	default:
		// Not cached anywhere useful: fetch from main memory.
		extra += uint64(s.cfg.MemLat)
		s.stats.L2Misses++
		if s.cfg.Trace != nil {
			s.cfg.Trace.CacheMiss(cycle, bank, 2, r.line)
		}
		if s.l2cap > 0 {
			s.installL2(cycle, e)
		}
	}

	if e.owner >= 0 && e.owner != r.from {
		// A remote L1 holds the line M/E: downgrade or invalidate it and
		// charge the round trip to the owner.
		down := !r.write
		s.post(bank, e.owner, body{kind: invMsg, line: r.line, downgrade: down})
		extra += 2 * uint64(distanceGuess(s.cfg.Clusters, bank, e.owner))
		extra += uint64(s.cfg.L1Lat)
		if down {
			s.stats.Downgrades++
			e.sharers |= 1 << uint(e.owner)
			e.owner = -1
		} else {
			s.stats.Invalidations++
			e.owner = -1
		}
	}
	if r.write {
		// Invalidate all sharers other than the requester.
		maxD := 0
		for c := 0; c < s.cfg.Clusters; c++ {
			if c != r.from && e.sharers&(1<<uint(c)) != 0 {
				s.post(bank, c, body{kind: invMsg, line: r.line})
				s.stats.Invalidations++
				if d := distanceGuess(s.cfg.Clusters, bank, c); d > maxD {
					maxD = d
				}
			}
		}
		extra += 2 * uint64(maxD)
		e.sharers = 0
		e.owner = r.from
		s.post(bank, r.from, body{kind: dataResp, line: r.line, reqID: r.reqID, grant: modified, delay: extra})
		return
	}
	grant := shared
	if e.owner < 0 && e.sharers == 0 {
		grant = exclusive
		e.owner = r.from
	} else {
		e.sharers |= 1 << uint(r.from)
	}
	s.post(bank, r.from, body{kind: dataResp, line: r.line, reqID: r.reqID, grant: grant, delay: extra})
}

// newEntry returns a directory entry for line with no owner, no sharers
// and no L2 copy: a recycled one, or one carved from the slab.
func (s *System) newEntry(line uint64) *dirEntry {
	var e *dirEntry
	if n := len(s.dirFree) - 1; n >= 0 {
		e = s.dirFree[n]
		s.dirFree = s.dirFree[:n]
	} else {
		if len(s.dirSlab) == 0 {
			s.dirSlab = make([]dirEntry, slabEntries)
		}
		e, s.dirSlab = &s.dirSlab[0], s.dirSlab[1:]
	}
	*e = dirEntry{line: line, owner: -1}
	return e
}

// dropEntry removes e from the directory and recycles it.
func (s *System) dropEntry(e *dirEntry) {
	delete(s.dir, e.line)
	s.dirFree = append(s.dirFree, e)
}

// l2PushMRU links e in at the MRU end of the L2's LRU list.
func (s *System) l2PushMRU(e *dirEntry) {
	e.prev, e.next = nil, s.mru
	if s.mru != nil {
		s.mru.prev = e
	} else {
		s.lru = e
	}
	s.mru = e
	s.l2Len++
}

// l2Unlink takes e out of the L2's LRU list.
func (s *System) l2Unlink(e *dirEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lru = e.prev
	}
	e.prev, e.next = nil, nil
	s.l2Len--
}

// installL2 makes a line L2-resident, evicting the LRU line if full
// (inclusive hierarchy: eviction invalidates L1 copies).
func (s *System) installL2(cycle uint64, e *dirEntry) {
	for s.l2Len >= s.l2cap {
		s.evictions++
		s.l2Evictions++
		ve := s.lru
		victim := ve.line
		vbank := s.Bank(victim)
		if ve.owner >= 0 {
			s.post(vbank, ve.owner, body{kind: invMsg, line: victim})
			s.stats.Invalidations++
		}
		for c := 0; c < s.cfg.Clusters; c++ {
			if ve.sharers&(1<<uint(c)) != 0 {
				s.post(vbank, c, body{kind: invMsg, line: victim})
				s.stats.Invalidations++
			}
		}
		s.l2Unlink(ve)
		s.dropEntry(ve)
	}
	e.inL2 = true
	s.l2PushMRU(e)
	if s.cfg.Trace != nil {
		s.cfg.Trace.CacheFill(cycle, s.Bank(e.line), 2, e.line)
	}
}

// maybeDrop garbage-collects a directory entry with no cached copies.
func (s *System) maybeDrop(e *dirEntry) {
	if !e.inL2 && e.owner < 0 && e.sharers == 0 {
		s.dropEntry(e)
	}
}

// handleDataResp fills the requesting L1 and completes the waiters.
func (s *System) handleDataResp(cycle uint64, cluster int, r body) {
	c := s.l1s[cluster]
	s.fill(cycle, cluster, r.line, r.grant)
	m := c.mshrs[r.line]
	if m == nil {
		return // line was invalidated while in flight; waiters already handled
	}
	if m.write && r.grant != modified {
		// Upgrade race: re-request exclusivity.
		s.post(cluster, s.Bank(r.line), body{kind: dirReq, line: r.line, from: cluster, reqID: r.reqID, write: true})
		return
	}
	delete(c.mshrs, r.line)
	for _, id := range m.waiters {
		s.schedule(event{at: cycle + r.delay + uint64(s.cfg.L1Lat), cluster: cluster, reqID: id})
	}
	s.mshrFree = append(s.mshrFree, m)
}

// fill installs a line in the L1, evicting the set's LRU way.
func (s *System) fill(cycle uint64, cluster int, ln uint64, grant state) {
	set := s.l1s[cluster].sets[ln%uint64(s.numSets)]
	if s.lookup(cluster, ln) != nil {
		s.evictions++ // a second copy of the line: see Footprint
	}
	var victim *way
	for i := range set {
		w := &set[i]
		if w.st == invalid {
			victim = w
			break
		}
		if victim == nil || w.touched < victim.touched {
			victim = w
		}
	}
	if victim.st != invalid {
		s.evictions++
	}
	if victim.st == modified {
		s.stats.L1Writebacks++
		s.post(cluster, s.Bank(victim.tag), body{kind: dirReq, line: victim.tag, from: cluster, isWB: true})
	}
	// A clean victim drops silently; the directory's sharer list goes
	// stale, which costs at most a spurious invalidation later.
	victim.tag = ln
	victim.st = grant
	victim.touched = cycle
	if s.cfg.Trace != nil {
		s.cfg.Trace.CacheFill(cycle, cluster, 1, ln)
	}
}

// handleInv drops or downgrades a line.
func (s *System) handleInv(cluster int, r body) {
	if w := s.lookup(cluster, r.line); w != nil {
		if r.downgrade {
			w.st = shared
		} else {
			w.st = invalid
		}
	}
}

// post queues a message from src to dst for injection, in a record from
// the free list.
func (s *System) post(src, dst int, b body) {
	var m *msg
	if n := len(s.msgFree) - 1; n >= 0 {
		m = s.msgFree[n]
		s.msgFree = s.msgFree[:n]
	} else {
		m = new(msg)
	}
	m.Message = noc.Message{Src: src, Dst: dst, ToMem: true, VC: noc.VCMemory, Payload: m}
	m.body = b
	s.outbox = append(s.outbox, &m.Message)
}

// schedule adds a completion event.
func (s *System) schedule(e event) {
	e.seq = s.seq
	s.seq++
	s.events.push(e)
}

// Tick drains due events and retries pending injections.
func (s *System) Tick(cycle uint64) {
	for len(s.events) > 0 && s.events[0].at <= cycle {
		e := s.events.popMin()
		s.done(cycle, e.cluster, e.reqID)
	}
	// Drain the outbox in order; stop at the first refusal per
	// destination attempt to preserve ordering.
	rest := s.outbox[:0]
	for _, m := range s.outbox {
		if !s.send(cycle, m) {
			rest = append(rest, m)
		}
	}
	s.outbox = rest
}

// Outstanding reports in-flight requests plus queued messages (diagnostic).
func (s *System) Outstanding() int {
	n := len(s.outbox) + len(s.events)
	for _, c := range s.l1s {
		n += len(c.mshrs)
	}
	return n
}

// distanceGuess estimates hop distance between clusters on the standard
// grid for n clusters (used only for invalidation-latency charging; actual
// messages ride the real network).
func distanceGuess(n, a, b int) int {
	w, _ := noc.DimsFor(n)
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}
