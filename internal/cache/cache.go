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
package cache

import (
	"container/list"
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

// Message payloads (exported for tests; carried in noc.Message.Payload).
type (
	// DirReq travels L1 -> home directory bank.
	DirReq struct {
		Line  uint64
		From  int
		ReqID uint64
		Write bool
		IsWB  bool // victim writeback, no response
	}
	// DataResp travels directory -> requesting L1.
	DataResp struct {
		Line  uint64
		ReqID uint64
		Grant state  // shared / exclusive / modified
		Delay uint64 // extra cycles (L2/memory/remote-fetch) charged on receipt
	}
	// InvMsg invalidates or downgrades a cached line.
	InvMsg struct {
		Line      uint64
		Downgrade bool // true: M -> S; false: drop to invalid
	}
)

type way struct {
	tag     uint64
	st      state
	touched uint64
}

type mshr struct {
	write   bool
	waiters []uint64 // request ids
	issued  bool
}

type l1 struct {
	sets      [][]way
	mshrs     map[uint64]*mshr // by line
	portUsed  uint64           // accesses already started this cycle
	portCycle uint64
}

type dirEntry struct {
	inL2    bool
	owner   int    // cluster with M/E copy, -1 if none
	sharers uint64 // bitmask of clusters with S copies
	lruEl   *list.Element
}

// event is a scheduled completion.
type event struct {
	at      uint64
	seq     uint64
	kind    eventKind
	cluster int
	reqID   uint64
	line    uint64
	grant   state
}

type eventKind uint8

const (
	evDone eventKind = iota
	evFill
)

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
	l2lru   *list.List           // of line addresses; front = MRU
	l2cap   int                  // lines; 0 means no L2 at all
	done    DoneFunc
	send    SendFunc
	outbox  []*noc.Message
	events  eventHeap
	seq     uint64
	stats   Stats
	numSets int
	// evictions counts the fills that break the cache-twin certificate
	// (see Evictions); it stays out of Stats so that no digest moves.
	evictions uint64
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
		l2lru: list.New(),
		l2cap: cfg.L2MB * (1 << 20) / cfg.LineBytes,
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

// Evictions counts the fills so far that displaced a valid line: an L1
// fill into a set with no invalid way, and an L2 install into a full L2.
// These are the only points at which the L1 and L2 capacities are read
// (the set count in lookup only partitions lines), so a run that reports
// zero runs event for event the same on any twin whose L1 is a multiple
// of this one's size and whose L2 is at least as large, both with an L2
// or both without. A fill of a line this L1 already holds (a write
// upgrade of a shared copy) counts too: it leaves two ways with one tag,
// and which of them a lookup finds first depends on where the set's
// invalid ways are, so it is not certified either.
func (s *System) Evictions() uint64 { return s.evictions }

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
			s.schedule(event{at: cycle + delay + uint64(s.cfg.L1Lat), kind: evDone,
				cluster: cluster, reqID: reqID})
			return
		}
		// Write hit on a shared line: upgrade via the directory.
	}
	s.stats.L1Misses++
	if s.cfg.Trace != nil {
		s.cfg.Trace.CacheMiss(cycle, cluster, 1, ln)
	}
	m := c.mshrs[ln]
	if m != nil {
		m.waiters = append(m.waiters, reqID)
		if write && !m.write {
			// A write joining a read miss: the fill handler re-requests
			// exclusivity if the grant is insufficient.
			m.write = true
		}
		s.stats.MSHRMerges++
		return
	}
	c.mshrs[ln] = &mshr{write: write, waiters: []uint64{reqID}, issued: true}
	s.post(cycle, &noc.Message{
		Src: cluster, Dst: s.Bank(ln), ToMem: true, VC: noc.VCMemory,
		Payload: DirReq{Line: ln, From: cluster, ReqID: reqID, Write: write},
	})
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

// Deliver handles a message arriving on a cluster's memory port.
func (s *System) Deliver(cycle uint64, cluster int, m *noc.Message) {
	switch p := m.Payload.(type) {
	case DirReq:
		s.handleDirReq(cycle, cluster, p)
	case DataResp:
		s.handleDataResp(cycle, cluster, p)
	case InvMsg:
		s.handleInv(cycle, cluster, p)
	default:
		panic(fmt.Sprintf("cache: unknown memory payload %T", m.Payload))
	}
}

// handleDirReq processes a request at the line's home directory bank.
func (s *System) handleDirReq(cycle uint64, bank int, r DirReq) {
	if r.IsWB {
		// Victim writeback: the owner gave up its modified copy, which
		// lands in the L2 (when there is one).
		if e, ok := s.dir[r.Line]; ok && e.owner == r.From {
			e.owner = -1
			if s.l2cap > 0 && !e.inL2 {
				s.installL2(cycle, r.Line, e)
			}
			s.maybeDrop(r.Line, e)
		}
		return
	}
	e := s.dir[r.Line]
	if e == nil {
		e = &dirEntry{owner: -1}
		s.dir[r.Line] = e
	}
	extra := uint64(s.cfg.L2Lat)
	switch {
	case e.owner >= 0 && e.owner != r.From:
		// Data comes cache-to-cache from the remote owner; the transfer
		// latency is charged below where the owner is downgraded.
	case e.inL2:
		s.stats.L2Hits++
		s.l2lru.MoveToFront(e.lruEl)
	default:
		// Not cached anywhere useful: fetch from main memory.
		extra += uint64(s.cfg.MemLat)
		s.stats.L2Misses++
		if s.cfg.Trace != nil {
			s.cfg.Trace.CacheMiss(cycle, bank, 2, r.Line)
		}
		if s.l2cap > 0 {
			s.installL2(cycle, r.Line, e)
		}
	}

	if e.owner >= 0 && e.owner != r.From {
		// A remote L1 holds the line M/E: downgrade or invalidate it and
		// charge the round trip to the owner.
		down := !r.Write
		s.post(cycle, &noc.Message{
			Src: bank, Dst: e.owner, ToMem: true, VC: noc.VCMemory,
			Payload: InvMsg{Line: r.Line, Downgrade: down},
		})
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
	if r.Write {
		// Invalidate all sharers other than the requester.
		maxD := 0
		for c := 0; c < s.cfg.Clusters; c++ {
			if c != r.From && e.sharers&(1<<uint(c)) != 0 {
				s.post(cycle, &noc.Message{
					Src: bank, Dst: c, ToMem: true, VC: noc.VCMemory,
					Payload: InvMsg{Line: r.Line},
				})
				s.stats.Invalidations++
				if d := distanceGuess(s.cfg.Clusters, bank, c); d > maxD {
					maxD = d
				}
			}
		}
		extra += 2 * uint64(maxD)
		e.sharers = 0
		e.owner = r.From
		s.post(cycle, &noc.Message{
			Src: bank, Dst: r.From, ToMem: true, VC: noc.VCMemory,
			Payload: DataResp{Line: r.Line, ReqID: r.ReqID, Grant: modified, Delay: extra},
		})
		return
	}
	grant := shared
	if e.owner < 0 && e.sharers == 0 {
		grant = exclusive
		e.owner = r.From
	} else {
		e.sharers |= 1 << uint(r.From)
	}
	s.post(cycle, &noc.Message{
		Src: bank, Dst: r.From, ToMem: true, VC: noc.VCMemory,
		Payload: DataResp{Line: r.Line, ReqID: r.ReqID, Grant: grant, Delay: extra},
	})
}

// installL2 makes a line L2-resident, evicting the LRU line if full
// (inclusive hierarchy: eviction invalidates L1 copies).
func (s *System) installL2(cycle uint64, ln uint64, e *dirEntry) {
	for s.l2lru.Len() >= s.l2cap {
		s.evictions++
		back := s.l2lru.Back()
		victim := back.Value.(uint64)
		ve := s.dir[victim]
		vbank := s.Bank(victim)
		if ve.owner >= 0 {
			s.post(cycle, &noc.Message{
				Src: vbank, Dst: ve.owner, ToMem: true, VC: noc.VCMemory,
				Payload: InvMsg{Line: victim},
			})
			s.stats.Invalidations++
		}
		for c := 0; c < s.cfg.Clusters; c++ {
			if ve.sharers&(1<<uint(c)) != 0 {
				s.post(cycle, &noc.Message{
					Src: vbank, Dst: c, ToMem: true, VC: noc.VCMemory,
					Payload: InvMsg{Line: victim},
				})
				s.stats.Invalidations++
			}
		}
		s.l2lru.Remove(back)
		delete(s.dir, victim)
	}
	e.inL2 = true
	e.lruEl = s.l2lru.PushFront(ln)
	if s.cfg.Trace != nil {
		s.cfg.Trace.CacheFill(cycle, s.Bank(ln), 2, ln)
	}
}

// maybeDrop garbage-collects a directory entry with no cached copies.
func (s *System) maybeDrop(ln uint64, e *dirEntry) {
	if !e.inL2 && e.owner < 0 && e.sharers == 0 {
		delete(s.dir, ln)
	}
}

// handleDataResp fills the requesting L1 and completes the waiters.
func (s *System) handleDataResp(cycle uint64, cluster int, r DataResp) {
	c := s.l1s[cluster]
	s.fill(cycle, cluster, r.Line, r.Grant)
	m := c.mshrs[r.Line]
	if m == nil {
		return // line was invalidated while in flight; waiters already handled
	}
	if m.write && r.Grant != modified {
		// Upgrade race: re-request exclusivity.
		s.post(cycle, &noc.Message{
			Src: cluster, Dst: s.Bank(r.Line), ToMem: true, VC: noc.VCMemory,
			Payload: DirReq{Line: r.Line, From: cluster, ReqID: r.ReqID, Write: true},
		})
		return
	}
	delete(c.mshrs, r.Line)
	for _, id := range m.waiters {
		s.schedule(event{at: cycle + r.Delay + uint64(s.cfg.L1Lat), kind: evDone,
			cluster: cluster, reqID: id})
	}
}

// fill installs a line in the L1, evicting the set's LRU way.
func (s *System) fill(cycle uint64, cluster int, ln uint64, grant state) {
	set := s.l1s[cluster].sets[ln%uint64(s.numSets)]
	if s.lookup(cluster, ln) != nil {
		s.evictions++ // a second copy of the line: see Evictions
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
		s.post(cycle, &noc.Message{
			Src: cluster, Dst: s.Bank(victim.tag), ToMem: true, VC: noc.VCMemory,
			Payload: DirReq{Line: victim.tag, From: cluster, IsWB: true},
		})
	} else if victim.st != invalid {
		// Silent drop of a clean line; the directory's sharer list goes
		// stale, which costs at most a spurious invalidation later.
		_ = victim
	}
	victim.tag = ln
	victim.st = grant
	victim.touched = cycle
	if s.cfg.Trace != nil {
		s.cfg.Trace.CacheFill(cycle, cluster, 1, ln)
	}
}

// handleInv drops or downgrades a line.
func (s *System) handleInv(cycle uint64, cluster int, r InvMsg) {
	if w := s.lookup(cluster, r.Line); w != nil {
		if r.Downgrade {
			w.st = shared
		} else {
			w.st = invalid
		}
	}
}

// post queues a message for injection.
func (s *System) post(cycle uint64, m *noc.Message) {
	s.outbox = append(s.outbox, m)
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
		if e.kind == evDone {
			s.done(cycle, e.cluster, e.reqID)
		}
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
