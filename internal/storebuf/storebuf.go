// Package storebuf implements WaveScalar's wave-ordered store buffer
// (Section 3.3.1): the per-cluster unit that restores von Neumann memory
// ordering for an imperative program's loads and stores.
//
// Each thread's waves complete strictly in order; within a wave, operations
// issue by the ripple rule on their (pred, seq, succ) annotations
// (internal/waveorder). The buffer holds a fixed number of ordering
// contexts ("the store buffer can handle four wave-ordered memory
// sequences at once"): each context serves one thread's oldest incomplete
// wave; arrivals for younger waves buffer until their turn.
//
// Stores are decoupled: the address half may arrive and issue before the
// data. A dataless store that reaches the head of the ripple is assigned a
// partial store queue (PSQ); later operations that target the same address
// queue behind it, while operations to other addresses flow past to the
// cache. When the data arrives the PSQ drains in order.
package storebuf

import (
	"fmt"
	"math/bits"

	"wavescalar/internal/isa"
	"wavescalar/internal/trace"
	"wavescalar/internal/waveorder"
)

// Config sizes the store buffer.
type Config struct {
	Contexts    int // concurrent wave-ordering contexts (4 in the RTL)
	PSQs        int // partial store queues (2 in the RTL)
	PSQEntries  int // entries per partial store queue (4 in the RTL)
	PipelineLat int // processing pipeline depth in cycles (3 in the RTL)
	// Cluster identifies the owning cluster for trace attribution.
	Cluster int
	// Trace, when non-nil, records issue and wave-commit events.
	Trace *trace.Recorder
}

// Validate checks the configuration. PSQs == 0 disables store decoupling
// benefits (a dataless store stalls the ripple), which is a valid ablation.
func (c Config) Validate() error {
	if c.Contexts <= 0 {
		return fmt.Errorf("storebuf: contexts must be positive")
	}
	if c.PSQs < 0 || c.PSQEntries < 0 || c.PipelineLat < 0 {
		return fmt.Errorf("storebuf: negative size: %+v", c)
	}
	if c.PSQs > 0 && c.PSQEntries == 0 {
		return fmt.Errorf("storebuf: PSQs without entries")
	}
	return nil
}

// ReqKind distinguishes the message types a PE sends.
type ReqKind uint8

const (
	ReqLoad      ReqKind = iota // load with address
	ReqStoreFull                // store with address and data together
	ReqStoreAddr                // decoupled store: address half
	ReqStoreData                // decoupled store: data half
	ReqNop                      // wave-ordering no-op
)

// Request is one message arriving from a PE (already network-delayed).
type Request struct {
	Kind ReqKind
	Inst isa.InstID
	Tag  isa.Tag
	Mem  isa.MemInfo
	Addr uint64
	Data uint64
}

// IssueKind classifies operations leaving the buffer for the cache.
type IssueKind uint8

const (
	IssueLoad IssueKind = iota
	IssueStore
	IssueNop // completes immediately; never reaches the cache
)

// Issued is an operation released in correct memory order.
type Issued struct {
	Kind IssueKind
	Inst isa.InstID
	Tag  isa.Tag
	Addr uint64
	Data uint64
}

// IssueFunc receives ordered operations; the simulator forwards loads and
// stores to the L1 and delivers result tokens.
type IssueFunc func(cycle uint64, op Issued)

// Stats counts store-buffer events.
type Stats struct {
	Arrivals      uint64
	IssuedLoads   uint64
	IssuedStores  uint64
	IssuedNops    uint64
	PSQAllocs     uint64 // dataless stores granted a partial store queue
	PSQQueued     uint64 // ops captured behind a pending store
	PSQStalls     uint64 // cycles the ripple stalled with no free PSQ
	ContextStalls uint64 // cycles a head wave waited for an ordering context
	WavesDone     uint64
}

// op is a wave-resident operation awaiting ripple issue. In the op slab it
// is linked into its spilled wave's list by next, the index of the next op
// (0 ends the list). The fields are ordered to pack an op into 64 bytes.
type op struct {
	readyAt uint64
	req     Request
	next    int32
	hasData bool // for stores: data half present
}

// opList is one spilled wave's ops in arrival order: the slab indexes of
// its first and last (0 when it is empty).
type opList struct{ head, tail int32 }

// psq is a partial store queue.
type psq struct {
	valid   bool
	addr    uint64
	inst    isa.InstID
	tag     isa.Tag
	hasData bool
	data    uint64
	queue   []Issued // ops captured behind the pending store
}

type threadState struct {
	nextWave uint32
	// spill holds the op lists of waves that do not yet own a context, on
	// a power-of-two ring of slots addressed by wave & (len-1). Every wave
	// it holds lies in [nextWave, nextWave+len(spill)) — no wave below
	// nextWave spills, and nextWave moves past a wave only after a context
	// has taken its ops — so a held slot is its wave's alone. See spilled
	// and slotFor.
	spill []spillSlot
	// active marks the thread as holding an ordering context, which always
	// serves nextWave: ripple is that wave's issue state and pending its
	// ops not yet issued, copied out of the slab at the grant so that the
	// ripple's scan of them every cycle reads one array, not a chain. Both
	// live here, the ripple by value and pending keeping its capacity from
	// wave to wave, so wave turnover allocates nothing.
	active  bool
	ripple  waveorder.Wave
	pending []op
	// waiting marks the thread as queued for a context grant.
	waiting bool
}

// spillSlot is one position of a thread's spill ring. A held slot may have
// no ops: a data half that merged with its address half leaves the wave's
// slot behind, and the wave still queues for a context.
type spillSlot struct {
	ops  opList
	wave uint32
	// early counts the data halves among ops still waiting for their
	// address halves, so an address half of a wave that holds none skips
	// the walk of its list.
	early int32
	held  bool
}

// spillRingStart is a spill ring's first capacity.
const spillRingStart = 4

// spilled returns the slot holding wave w's spilled ops, or nil.
func (ts *threadState) spilled(w uint32) *spillSlot {
	if w < ts.nextWave || w-ts.nextWave >= uint32(len(ts.spill)) {
		return nil
	}
	if s := &ts.spill[w&uint32(len(ts.spill)-1)]; s.held {
		return s
	}
	return nil
}

// slotFor returns the ring position of wave w, which must not be below
// nextWave, doubling the ring until it reaches that far.
func (ts *threadState) slotFor(w uint32) *spillSlot {
	for w-ts.nextWave >= uint32(len(ts.spill)) {
		ring := make([]spillSlot, max(spillRingStart, 2*len(ts.spill)))
		for _, s := range ts.spill {
			if s.held {
				ring[s.wave&uint32(len(ring)-1)] = s
			}
		}
		ts.spill = ring
	}
	return &ts.spill[w&uint32(len(ts.spill)-1)]
}

// opChunkShift sizes the op slab's chunks: chunk k holds
// 1<<(opChunkShift+k) ops, so the slab doubles without copying an op, and
// opChunks of them cover every int32 index.
const (
	opChunkShift = 5
	opChunks     = 31 - opChunkShift
)

// pendingStart is the capacity of a thread's pending ops at its first
// grant; it grows by append past that and keeps what it reached.
const pendingStart = 32

// Buffer is one cluster's wave-ordered store buffer.
type Buffer struct {
	cfg       Config
	issue     IssueFunc
	threads   map[uint32]*threadState
	threadIDs []uint32 // first-seen order, for deterministic ticking
	grantQ    []uint32 // threads waiting for a context, FIFO
	inUse     int
	psqs      []psq
	// spillLive counts ops across every thread's spill ring and psqLive
	// counts valid partial store queues, so Quiet — polled every cycle by
	// the active-set scheduler — is O(1) instead of a walk over all
	// threads and PSQs.
	spillLive int
	psqLive   int
	// ops is the op slab: every spilled wave's ops, each wave's linked
	// into its slot's list, op i at at(i) (entry 0 unused). An op copied
	// out at its wave's grant or merged away returns to the list that
	// starts at free, so wave turnover reuses entries, and a burst of
	// spilled waves adds chunks, each twice the last, to the one slab.
	ops   [opChunks][]op
	used  int32 // entries handed out, entry 0 included
	free  int32
	stats Stats
}

// New creates a store buffer that releases ordered operations through fn.
func New(cfg Config, fn IssueFunc) *Buffer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Buffer{
		cfg:     cfg,
		issue:   fn,
		threads: make(map[uint32]*threadState),
		psqs:    make([]psq, cfg.PSQs),
	}
}

// Stats returns the buffer's counters.
func (b *Buffer) Stats() Stats { return b.stats }

// ActiveContexts returns how many ordering contexts are in use.
func (b *Buffer) ActiveContexts() int { return b.inUse }

// Quiet reports whether the buffer holds no work: no active or spilled
// waves, no pending grants, and no partial store queues awaiting data.
// An active context implies inUse > 0 and every spilled op is counted in
// spillLive, so four counter checks cover the old full walk.
func (b *Buffer) Quiet() bool {
	return b.inUse == 0 && len(b.grantQ) == 0 && b.spillLive == 0 && b.psqLive == 0
}

func (b *Buffer) thread(id uint32) *threadState {
	ts := b.threads[id]
	if ts == nil {
		ts = &threadState{}
		b.threads[id] = ts
		b.threadIDs = append(b.threadIDs, id)
	}
	return ts
}

// at returns op i of the slab.
func (b *Buffer) at(i int32) *op {
	k, j := chunkOf(i)
	return &b.ops[k][j]
}

// chunkOf returns the chunk of the op slab holding op i and its place there.
func chunkOf(i int32) (k, j int) {
	u := uint32(i) + 1<<opChunkShift
	k = bits.Len32(u) - opChunkShift - 1
	return k, int(u - 1<<(opChunkShift+k))
}

// push appends o to l, taking an entry from the free list before growing
// the slab.
func (b *Buffer) push(l *opList, o op) {
	i := b.free
	if i != 0 {
		b.free = b.at(i).next
	} else {
		i = max(b.used, 1) // entry 0 ends every list
		if k, _ := chunkOf(i); b.ops[k] == nil {
			b.ops[k] = make([]op, 1<<(opChunkShift+k))
		}
		b.used = i + 1
	}
	*b.at(i) = o
	if l.tail == 0 {
		l.head = i
	} else {
		b.at(l.tail).next = i
	}
	l.tail = i
}

// unlink removes op i from l and frees it; prev is the op before it (0 if
// i is the head).
func (b *Buffer) unlink(l *opList, prev, i int32) {
	next := b.at(i).next
	if prev == 0 {
		l.head = next
	} else {
		b.at(prev).next = next
	}
	if l.tail == i {
		l.tail = prev
	}
	b.at(i).next, b.free = b.free, i
}

// takeAll appends l's ops to dst in order and frees their entries.
func (b *Buffer) takeAll(dst []op, l opList) []op {
	for i := l.head; i != 0; {
		o := b.at(i)
		dst = append(dst, *o)
		next := o.next
		o.next, b.free = b.free, i
		i = next
	}
	return dst
}

// Enqueue accepts a request at the given cycle; it becomes visible to the
// ripple after the processing-pipeline latency.
func (b *Buffer) Enqueue(cycle uint64, r Request) {
	b.stats.Arrivals++
	ts := b.thread(r.Tag.Thread)
	o := op{req: r, hasData: r.Kind == ReqStoreFull, readyAt: cycle + uint64(b.cfg.PipelineLat)}

	// A decoupled data half merges with its store's address half wherever
	// that is (spilled, active, or already in a PSQ).
	if r.Kind == ReqStoreData {
		if b.mergeStoreData(cycle, ts, r) {
			return
		}
		// Data arrived before the address: hold it as a spilled record;
		// the address half will merge with it.
	}
	// Conversely, an address half may find its data already waiting.
	if r.Kind == ReqStoreAddr {
		if data, ok := b.takeEarlyData(ts, r); ok {
			o.req.Kind = ReqStoreFull
			o.req.Data = data
			o.hasData = true
		}
	}

	if ts.active && r.Tag.Wave == ts.nextWave {
		ts.pending = append(ts.pending, o)
		return
	}
	if r.Tag.Wave < ts.nextWave {
		panic(fmt.Sprintf("storebuf: op for completed wave %d (next %d)", r.Tag.Wave, ts.nextWave))
	}
	sp := ts.slotFor(r.Tag.Wave)
	if !sp.held {
		sp.held, sp.wave = true, r.Tag.Wave
	}
	b.push(&sp.ops, o)
	if o.req.Kind == ReqStoreData {
		sp.early++
	}
	b.spillLive++
	if r.Tag.Wave == ts.nextWave && !ts.waiting {
		ts.waiting = true
		b.grantQ = append(b.grantQ, r.Tag.Thread)
	}
}

// mergeStoreData attaches a data half to its store. Returns true if merged.
func (b *Buffer) mergeStoreData(cycle uint64, ts *threadState, r Request) bool {
	// In a PSQ?
	for i := range b.psqs {
		q := &b.psqs[i]
		if q.valid && !q.hasData && q.inst == r.Inst && q.tag == r.Tag {
			q.hasData = true
			q.data = r.Data
			b.drainPSQ(cycle, q)
			return true
		}
	}
	merge := func(o *op) bool {
		if o.req.Inst == r.Inst && o.req.Tag == r.Tag &&
			(o.req.Kind == ReqStoreAddr) && !o.hasData {
			o.hasData = true
			o.req.Data = r.Data
			o.req.Kind = ReqStoreFull
			return true
		}
		return false
	}
	if ts.active && r.Tag.Wave == ts.nextWave {
		for i := range ts.pending {
			if merge(&ts.pending[i]) {
				return true
			}
		}
		return false
	}
	if sp := ts.spilled(r.Tag.Wave); sp != nil {
		for i := sp.ops.head; i != 0; i = b.at(i).next {
			if merge(b.at(i)) {
				return true
			}
		}
	}
	return false
}

// takeEarlyData removes a data-half record waiting for store (inst, tag)
// and returns its value.
func (b *Buffer) takeEarlyData(ts *threadState, r Request) (uint64, bool) {
	match := func(o *op) bool {
		return o.req.Kind == ReqStoreData && o.req.Inst == r.Inst && o.req.Tag == r.Tag
	}
	if ts.active && r.Tag.Wave == ts.nextWave {
		for i := range ts.pending {
			if o := &ts.pending[i]; match(o) {
				d := o.req.Data
				ts.pending = append(ts.pending[:i], ts.pending[i+1:]...)
				return d, true
			}
		}
		return 0, false
	}
	if sp := ts.spilled(r.Tag.Wave); sp != nil && sp.early > 0 {
		for prev, i := int32(0), sp.ops.head; i != 0; prev, i = i, b.at(i).next {
			if o := b.at(i); match(o) {
				d := o.req.Data
				b.unlink(&sp.ops, prev, i)
				sp.early--
				b.spillLive--
				return d, true
			}
		}
	}
	return 0, false
}

// Tick advances the buffer one cycle: grants free contexts to waiting
// threads and ripples every active context.
func (b *Buffer) Tick(cycle uint64) {
	// Grant contexts FIFO. The granted prefix is closed up in place, so the
	// queue keeps its backing array.
	granted := 0
	for ; b.inUse < b.cfg.Contexts && granted < len(b.grantQ); granted++ {
		ts := b.thread(b.grantQ[granted])
		ts.waiting = false
		if ts.active {
			continue
		}
		ts.active, ts.ripple = true, waveorder.Wave{}
		if ts.pending == nil {
			ts.pending = make([]op, 0, pendingStart)
		}
		if sp := ts.spilled(ts.nextWave); sp != nil {
			ts.pending = b.takeAll(ts.pending, sp.ops)
			b.spillLive -= len(ts.pending)
			*sp = spillSlot{}
		}
		b.inUse++
	}
	b.grantQ = b.grantQ[:copy(b.grantQ, b.grantQ[granted:])]
	if len(b.grantQ) > 0 {
		b.stats.ContextStalls += uint64(len(b.grantQ))
	}

	for _, tid := range b.threadIDs {
		ts := b.threads[tid]
		if ts.active {
			b.ripple(cycle, tid, ts)
		}
	}
}

// ripple issues every currently issuable op of the thread's active wave,
// each time the first in arrival order that can go.
func (b *Buffer) ripple(cycle uint64, tid uint32, ts *threadState) {
	for {
		progress := false
		for i := 0; i < len(ts.pending); i++ {
			o := &ts.pending[i]
			if o.readyAt > cycle || !ts.ripple.CanIssue(o.req.Mem) {
				continue
			}
			// A data half that arrived before its address and never
			// merged cannot occur here: only address-bearing ops carry
			// chain annotations that the ripple can accept.
			if o.req.Kind == ReqStoreData {
				continue
			}
			if !b.issueOp(cycle, *o) {
				// No PSQ free for a dataless store: the ripple stalls.
				b.stats.PSQStalls++
				return
			}
			ts.ripple.Issue(o.req.Mem)
			ts.pending = append(ts.pending[:i], ts.pending[i+1:]...)
			progress = true
			break
		}
		if !progress {
			break
		}
	}
	if ts.ripple.Complete() {
		if len(ts.pending) != 0 {
			panic(fmt.Sprintf("storebuf: wave t%d.w%d completed with %d ops pending",
				tid, ts.nextWave, len(ts.pending)))
		}
		ts.active = false
		b.inUse--
		b.stats.WavesDone++
		if b.cfg.Trace != nil {
			b.cfg.Trace.SBCommit(cycle, b.cfg.Cluster, tid, ts.nextWave)
		}
		ts.nextWave++
		if ts.spilled(ts.nextWave) != nil && !ts.waiting {
			ts.waiting = true
			b.grantQ = append(b.grantQ, tid)
		}
	}
}

// issueOp releases one wave-ordered op: to a PSQ, behind a PSQ, or to the
// cache. Returns false when a dataless store finds no free PSQ.
func (b *Buffer) issueOp(cycle uint64, o op) bool {
	r := o.req
	// Associative check: does the op target an address owned by a PSQ?
	if q := b.findPSQ(r.Addr); q != nil {
		if len(q.queue) >= b.cfg.PSQEntries {
			return false // queue full: stall the ripple
		}
		if r.Kind == ReqStoreAddr && !o.hasData {
			// A second dataless store to the same address: hold the
			// ripple until its data merges rather than queueing a store
			// with no value.
			return false
		}
		q.queue = append(q.queue, b.toIssued(r, o.hasData))
		b.stats.PSQQueued++
		return true
	}
	if r.Kind == ReqStoreAddr && !o.hasData {
		// Dataless store at the ripple head: needs a PSQ.
		for i := range b.psqs {
			q := &b.psqs[i]
			if !q.valid {
				*q = psq{valid: true, addr: r.Addr, inst: r.Inst, tag: r.Tag, queue: q.queue}
				b.psqLive++
				b.stats.PSQAllocs++
				return true
			}
		}
		return false
	}
	b.emit(cycle, b.toIssued(r, o.hasData))
	return true
}

func (b *Buffer) toIssued(r Request, hasData bool) Issued {
	switch r.Kind {
	case ReqLoad:
		return Issued{Kind: IssueLoad, Inst: r.Inst, Tag: r.Tag, Addr: r.Addr}
	case ReqNop:
		return Issued{Kind: IssueNop, Inst: r.Inst, Tag: r.Tag}
	default:
		return Issued{Kind: IssueStore, Inst: r.Inst, Tag: r.Tag, Addr: r.Addr, Data: r.Data}
	}
}

func (b *Buffer) findPSQ(addr uint64) *psq {
	for i := range b.psqs {
		if b.psqs[i].valid && b.psqs[i].addr == addr {
			return &b.psqs[i]
		}
	}
	return nil
}

// drainPSQ releases the pending store and everything queued behind it.
func (b *Buffer) drainPSQ(cycle uint64, q *psq) {
	b.emit(cycle, Issued{Kind: IssueStore, Inst: q.inst, Tag: q.tag, Addr: q.addr, Data: q.data})
	for _, is := range q.queue {
		b.emit(cycle, is)
	}
	*q = psq{queue: q.queue[:0]} // the queue keeps its capacity
	b.psqLive--
}

func (b *Buffer) emit(cycle uint64, is Issued) {
	switch is.Kind {
	case IssueLoad:
		b.stats.IssuedLoads++
	case IssueStore:
		b.stats.IssuedStores++
	case IssueNop:
		b.stats.IssuedNops++
	}
	if b.cfg.Trace != nil {
		b.cfg.Trace.SBIssue(cycle, b.cfg.Cluster, int(is.Kind), is.Addr)
	}
	b.issue(cycle, is)
}
