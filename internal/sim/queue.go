package sim

import (
	"math"
	"math/bits"

	"wavescalar/internal/isa"
	"wavescalar/internal/match"
	"wavescalar/internal/noc"
	"wavescalar/internal/storebuf"
)

// activeSet is one scheduling phase's work list: the set of component
// indices with (potentially) actionable state, one bit each. arm is
// idempotent — a component already in the set is not added twice — so
// every queue-push site can arm unconditionally. drain snapshots the
// current membership in ascending index order (the full-scan loop's visit
// order, which the equivalence guarantee depends on; a walk over the words
// yields it by construction) and clears the set, so work discovered during
// the drain re-arms into the next drain.
type activeSet struct {
	bits []uint64
	out  []int32 // drain scratch, sized for every component up front
}

func newActiveSet(n int) *activeSet {
	return &activeSet{bits: make([]uint64, (n+63)/64), out: make([]int32, 0, n)}
}

func (s *activeSet) arm(i int32) {
	s.bits[i>>6] |= 1 << (i & 63)
}

// len returns how many components are armed.
func (s *activeSet) len() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// drain returns the armed indices in ascending order and empties the set.
// The returned slice is valid until the next drain. s.out has room for
// every component, so append never reallocates and the header is not
// stored back (a store would cost a write barrier per drain while the
// collector marks).
func (s *activeSet) drain() []int32 {
	out := s.out[:0]
	for wi, w := range s.bits {
		if w == 0 {
			continue
		}
		s.bits[wi] = 0
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// carver cuts fixed-size slices from one machine's blocks of T, carveBlock
// slices to a block: a PE's or a domain unit's first ring buffer and a
// token pool's first nodes come from one, so the first token a PE receives
// costs no allocation of its own, and a run's mallocs do not grow with the
// number of PEs it touches. A slice's capacity ends at its length
// (s[:n:n]), so an append past it reallocates rather than running into its
// neighbour's; what a machine wastes is the unused end of one block per
// carver. A nil carver allocates each slice on its own.
type carver[T any] struct {
	block []T
}

// carveBlock is how many slices of the requested size one block holds.
const carveBlock = 16

// take returns n zeroed elements, capacity n.
func (c *carver[T]) take(n int) []T {
	if c == nil {
		return make([]T, n)
	}
	if len(c.block) < n {
		c.block = make([]T, n*carveBlock)
	}
	s := c.block[:n:n]
	c.block = c.block[n:]
	return s
}

// carvers are a machine's carvers: one per type of first buffer, and one
// each for the token path's messages, payloads and store-buffer requests
// before their free lists hold any.
type carvers struct {
	sched   carver[schedEntry]
	results carver[execResult]
	out     carver[outEntry]
	dests   carver[isa.Target]
	toks    carver[tokNode]
	net     carver[netMsg]
	mem     carver[memQEntry]
	msgs    carver[noc.Message]
	pays    carver[operandPayload]
	reqs    carver[storebuf.Request]
}

// fifo is a queue on a power-of-two ring: nothing is allocated until the
// first push, the buffer then starts at fifoStart slots, cut from src, and
// doubles when full, and every position is masked index arithmetic, so a
// queue that holds a few entries keeps re-using the same few cache lines
// however many pass through it. head and n are int32 so that src costs
// the header no size: a fifo is five words, and the PE and domain headers
// that hold several keep their layout.
type fifo[T any] struct {
	buf  []T   // nil, or a power-of-two number of slots
	head int32 // slot of the front element
	n    int32
	src  *carver[T] // where the first buffer comes from; nil allocates it
}

// fifoStart is a ring's first capacity.
const fifoStart = 8

func (q *fifo[T]) len() int { return int(q.n) }

func (q *fifo[T]) empty() bool { return q.n == 0 }

// slot returns the buffer position of the i-th element from the front.
func (q *fifo[T]) slot(i int) int { return (int(q.head) + i) & (len(q.buf) - 1) }

// grow doubles a full ring, unwrapping it so the front lands in slot 0.
func (q *fifo[T]) grow() {
	if len(q.buf) == 0 {
		q.buf, q.head = q.src.take(fifoStart), 0
		return
	}
	buf := make([]T, 2*len(q.buf))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

func (q *fifo[T]) push(v T) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(int(q.n))] = v
	q.n++
}

// peek returns the i-th element from the front. The pointer is good until
// the queue is next changed.
func (q *fifo[T]) peek(i int) *T { return &q.buf[q.slot(i)] }

func (q *fifo[T]) popFront() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = int32(q.slot(1))
	q.n--
	return v
}

// remove deletes the i-th element from the front, preserving order, by
// shifting whichever side of it is shorter one slot toward it. Its one
// caller picks from the scheduling queue's eight-entry dispatch window, so
// the shift is a few elements; queues that are removed from at depth are
// tokLists.
func (q *fifo[T]) remove(i int) T {
	var zero T
	v := q.buf[q.slot(i)]
	if 2*i < int(q.n) {
		for ; i > 0; i-- {
			q.buf[q.slot(i)] = q.buf[q.slot(i-1)]
		}
		q.buf[q.head] = zero
		q.head = int32(q.slot(1))
	} else {
		for ; i < int(q.n)-1; i++ {
			q.buf[q.slot(i)] = q.buf[q.slot(i+1)]
		}
		q.buf[q.slot(int(q.n)-1)] = zero
	}
	q.n--
	return v
}

// pushFront inserts at the head (used for priority bypass entries and
// instruction-miss replays).
func (q *fifo[T]) pushFront(v T) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.head = int32(q.slot(len(q.buf) - 1))
	q.buf[q.head] = v
	q.n++
}

// memRing holds the memory operations between issue and cache completion,
// keyed by request id. Ids are handed out in sequence and completions come
// back in any order, so the ring is a power-of-two array of slots addressed
// by id & (len-1), which doubles whenever an id's slot is still taken: the
// outstanding ids then always span fewer ids than the ring has slots. A
// slot keeps its id, so completing an id the ring does not hold — never
// issued, already completed, or completed and its slot reused — is told
// apart from completing the one it does.
type memRing struct {
	slots []memSlot // nil, or a power-of-two number of slots
	n     int
}

// memSlot is one ring position: key is the id plus one, 0 when empty.
type memSlot struct {
	op  pendingMemOp
	key uint64
}

// memRingStart is a ring's first capacity.
const memRingStart = 16

func (r *memRing) len() int { return r.n }

// put holds op under id, which no held operation has.
func (r *memRing) put(id uint64, op pendingMemOp) {
	for len(r.slots) == 0 || r.slots[id&uint64(len(r.slots)-1)].key != 0 {
		r.grow()
	}
	r.slots[id&uint64(len(r.slots)-1)] = memSlot{op: op, key: id + 1}
	r.n++
}

// take removes and returns the operation held under id, if there is one.
func (r *memRing) take(id uint64) (pendingMemOp, bool) {
	if len(r.slots) == 0 {
		return pendingMemOp{}, false
	}
	s := &r.slots[id&uint64(len(r.slots)-1)]
	if s.key != id+1 {
		return pendingMemOp{}, false
	}
	op := s.op
	*s = memSlot{}
	r.n--
	return op, true
}

// grow doubles the ring. Ids distinct modulo the old size stay distinct
// modulo the new one, so every held operation finds its slot free.
func (r *memRing) grow() {
	slots := make([]memSlot, max(memRingStart, 2*len(r.slots)))
	mask := uint64(len(slots) - 1)
	for _, s := range r.slots {
		if s.key != 0 {
			slots[(s.key-1)&mask] = s
		}
	}
	r.slots = slots
}

// tokNode is a token held at a PE's INPUT stage: queued, parked on a
// k-reject, or released and awaiting reinjection. It sits on exactly one
// tokList at a time and moves between them by relinking, never by copy.
// The token is kept field by field, so the node packs into 48 bytes with
// what the INPUT scan reads of every node it passes — readyAt, the link,
// li, the wave and the bank — in its first 28.
type tokNode struct {
	// readyAt is the first cycle the token may be offered. A token on a
	// herd's lane is ready by definition (parking makes it so) and takes no
	// latency sample, so there readyAt holds its park sequence number and
	// sentAt its record links instead; see herd and lane.
	readyAt uint64
	next    int32
	// li, req and bank are the destination instruction's local index and
	// required-operand mask at this PE and the matching-table bank the
	// token arrives at, resolved once when the token arrives however many
	// times it is re-offered.
	li    int32
	tag   isa.Tag
	inst  isa.InstID
	port  isa.PortID
	req   uint8
	bank  uint8
	value uint64
	// sentAt is the producer's execution-completion cycle, so INPUT can
	// record end-to-end operand delivery latency (Section 4.3's
	// message-latency metric); 0 means no sample is taken.
	sentAt uint64
}

// token returns the token the node holds.
func (nd *tokNode) token() isa.Token {
	return isa.Token{Tag: nd.tag, Value: nd.value, Dest: isa.Target{Inst: nd.inst, Port: nd.port}}
}

// nilTok ends a list. Node 0 of every pool is reserved for it, so the zero
// tokList is empty and zeroed links point nowhere.
const nilTok int32 = 0

// tokList is an intrusive singly-linked list threaded through a tokPool's
// nodes by index. Its one walker, the INPUT scan, knows each node's
// predecessor, so a node needs only its forward link.
type tokList struct {
	head, tail int32
	n          int32
}

func (l *tokList) empty() bool { return l.head == nilTok }

// tokPool owns one PE's token nodes. Indexes stay valid as the backing
// slice grows; *tokNode pointers do not survive a get.
type tokPool struct {
	nodes []tokNode // nodes[0] is nilTok's slot and is never handed out
	free  int32     // free list, linked through next
}

// tokPoolStart is the capacity a pool starts with when its first token
// arrives, cut from the machine's block. Most PEs of a many-cluster machine running a few
// threads never see one, so nothing is taken up front.
const tokPoolStart = 16

// get returns an unlinked node, recycling a freed one before extending the
// pool; a pool's first nodes are cut from src, which its one caller passes
// rather than the pool holding it, so the pool stays four words.
func (p *tokPool) get(src *carver[tokNode]) int32 {
	if i := p.free; i != nilTok {
		p.free = p.nodes[i].next
		return i
	}
	if p.nodes == nil {
		p.nodes = src.take(tokPoolStart)[:1]
	}
	p.nodes = append(p.nodes, tokNode{})
	return int32(len(p.nodes) - 1)
}

// put recycles an unlinked node.
func (p *tokPool) put(i int32) {
	p.nodes[i].next = p.free
	p.free = i
}

func (p *tokPool) pushBack(l *tokList, i int32) {
	p.nodes[i].next = nilTok
	if l.tail != nilTok {
		p.nodes[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
	l.n++
}

// unlink removes node i from l, wherever it sits; prev is the node before
// it (nilTok if i is the head).
func (p *tokPool) unlink(l *tokList, prev, i int32) {
	next := p.nodes[i].next
	if prev != nilTok {
		p.nodes[prev].next = next
	} else {
		l.head = next
	}
	if next == nilTok {
		l.tail = prev
	}
	l.n--
}

// moveRun moves the n-node run first..last of src to the tail of dst,
// keeping order; before is the node ahead of the run (nilTok if it starts
// src). Only the links at the run's two ends and its neighbours are
// written, however long the run is.
func (p *tokPool) moveRun(dst, src *tokList, before, first, last, n int32) {
	after := p.nodes[last].next
	if before != nilTok {
		p.nodes[before].next = after
	} else {
		src.head = after
	}
	if after == nilTok {
		src.tail = before
	}
	src.n -= n
	p.nodes[last].next = nilTok
	if dst.tail != nilTok {
		p.nodes[dst.tail].next = first
	} else {
		dst.head = first
	}
	dst.tail = last
	dst.n += n
}

// seq returns the park sequence number of a token on a herd's lane.
func (nd *tokNode) seq() uint64 { return nd.readyAt }

// recs returns a lane record's links to the records before and after it.
func (nd *tokNode) recs() (prev, next int32) {
	return int32(uint32(nd.sentAt)), int32(uint32(nd.sentAt >> 32))
}

func (nd *tokNode) setRecs(prev, next int32) {
	nd.sentAt = uint64(uint32(prev)) | uint64(uint32(next))<<32
}

// noSeq is above every park sequence number.
const noSeq = math.MaxUint64

// herd is a block of tokens parked on one local index, in park order,
// split into one lane per matching-table bank: lane b holds the block's
// tokens that arrive at bank b, in park order, and the tokens' sequence
// numbers (increasing in park order within the herd) merge the lanes back
// into the one order. A parked list is a list of herds, and so is the run
// of released tokens at the front of a PE's input queue: the table's
// release callback moves a parked list's herds there whole, and the INPUT
// stage settles a herd a lane at a time (peUnit.settle). Sequence numbers
// are compared only within one herd.
type herd struct {
	li   int32  // the local index every token of the herd is for
	next int32  // the next herd on its herdList
	n    int32  // tokens on all lanes
	top  uint64 // the highest sequence number the herd has held
	// okEp is the index's displacement count (match.Table.KBound's moved)
	// when the lanes' okSeq were checked; see lane.
	okEp  uint32
	lanes [match.MaxBanks]lane
}

// lane is one bank's tokens of a herd. Its records are the tokens whose
// wave is below the wave of every token behind them, so the first record
// holds the lane's lowest wave and the tail is always the last record:
// they form a queue with waves rising, doubly linked through the tokens,
// that a token joining at the tail pops from the back and tokens leaving
// at the front pop from the front. hi bounds the lane's waves from above;
// it only loosens as tokens leave. Every token with a sequence number up
// to okSeq was found not displaced to the in-memory table in the herd's
// okEp: an instance of the index is displaced only with a new count, so
// that holds until the count moves.
type lane struct {
	tokList
	first  int32  // the first record
	lo, hi uint32 // the first record's wave, the lane's lowest; a bound from above
	okSeq  uint64
}

// setFirst makes r the first record.
func (ln *lane) setFirst(nodes []tokNode, r int32) {
	ln.first, ln.lo = r, nodes[r].tag.Wave
}

// certain reports whether every token of the non-empty lane is a certain
// k-reject at a free bank, given a full index's bound and displaced range
// (match.Table.KBound): its lowest wave is above the bound, and each token
// is outside the range or was checked against the in-memory table.
func (ln *lane) certain(nodes []tokNode, bound, ovLo, ovHi uint32) bool {
	return ln.lo > bound && (ln.hi < ovLo || ln.lo > ovHi || ln.okSeq >= nodes[ln.tail].seq())
}

// link makes x, already appended behind last (the lane's tail before it,
// nilTok if the lane was empty), the lane's last record, dropping the
// records its wave outranks.
func (ln *lane) link(nodes []tokNode, last, x int32) {
	w := nodes[x].tag.Wave
	r := last
	for r != nilTok && nodes[r].tag.Wave >= w {
		r, _ = nodes[r].recs()
	}
	if r == nilTok {
		ln.setFirst(nodes, x)
	} else {
		prev, _ := nodes[r].recs()
		nodes[r].setRecs(prev, x)
	}
	nodes[x].setRecs(r, nilTok)
}

// trim drops the records that left the front of the lane with its head.
func (ln *lane) trim(nodes []tokNode) {
	if ln.n == 0 {
		ln.first = nilTok
		return
	}
	hs, f := nodes[ln.head].seq(), ln.first
	if nodes[f].seq() >= hs {
		return
	}
	for nodes[f].seq() < hs {
		_, f = nodes[f].recs()
	}
	_, next := nodes[f].recs()
	nodes[f].setRecs(nilTok, next)
	ln.setFirst(nodes, f)
}

// nilHerd ends a herd list; herd 0 of every pool is reserved for it.
const nilHerd int32 = 0

// herdList is a singly-linked list of herds threaded through a herdPool,
// and n the tokens they hold.
type herdList struct {
	head, tail int32
	n          int32
}

func (l *herdList) empty() bool { return l.head == nilHerd }

// herdPool owns a machine's herds, recycled through a free list linked by
// next. One pool serves every PE, so a PE's first herd allocates nothing.
type herdPool struct {
	h    []herd // h[0] is nilHerd's slot
	free int32
}

// get returns an empty herd for local index li.
func (p *herdPool) get(li int32) int32 {
	i := p.free
	if i != nilHerd {
		p.free = p.h[i].next
	} else {
		if p.h == nil {
			p.h = make([]herd, 1, 16)
		}
		p.h = append(p.h, herd{})
		i = int32(len(p.h) - 1)
	}
	p.h[i] = herd{li: li}
	return i
}

// put recycles an empty, unlinked herd.
func (p *herdPool) put(i int32) {
	p.h[i].next = p.free
	p.free = i
}

func (p *herdPool) pushBack(l *herdList, i int32) {
	p.h[i].next = nilHerd
	if l.tail != nilHerd {
		p.h[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
	l.n += p.h[i].n
}

// concat moves every herd of src to the tail of dst and leaves src empty.
func (p *herdPool) concat(dst, src *herdList) {
	if src.head == nilHerd {
		return
	}
	if dst.tail == nilHerd {
		dst.head = src.head
	} else {
		p.h[dst.tail].next = src.head
	}
	dst.tail = src.tail
	dst.n += src.n
	src.head, src.tail, src.n = nilHerd, nilHerd, 0
}

// push appends token i, which is not displaced to the in-memory table,
// to its lane of herd h; the token's sequence number must be above every
// one the herd holds.
func (p *herdPool) push(toks *tokPool, h, i int32) {
	nd := &toks.nodes[i]
	hd := &p.h[h]
	ln := &hd.lanes[nd.bank]
	if ln.n == 0 || nd.tag.Wave > ln.hi {
		ln.hi = nd.tag.Wave
	}
	if ln.n == 0 || ln.okSeq >= toks.nodes[ln.tail].seq() {
		ln.okSeq = nd.seq()
	}
	last := ln.tail
	toks.pushBack(&ln.tokList, i)
	ln.link(toks.nodes, last, i)
	hd.top = nd.seq()
	hd.n++
}

// moveLane moves the n-token run at the head of src, ending at node last,
// to the tail of dst. A whole lane brings its records along; a shorter
// run's are found again as it joins dst, token by token. The run's checks
// against the in-memory table, made at dst's displacement count, carry
// over when dst's cover all it holds.
func (p *herdPool) moveLane(toks *tokPool, dst, src *lane, last, n int32) {
	nodes := toks.nodes
	first, tail, whole := src.head, dst.tail, last == src.tail
	if dst.n == 0 || dst.okSeq >= nodes[tail].seq() {
		dst.okSeq = min(src.okSeq, nodes[last].seq())
	}
	if dst.n == 0 || src.hi > dst.hi {
		dst.hi = src.hi
	}
	toks.moveRun(&dst.tokList, &src.tokList, nilTok, first, last, n)
	if whole {
		r := src.first
		src.first = nilTok
		w := nodes[r].tag.Wave
		for tail != nilTok && nodes[tail].tag.Wave >= w {
			tail, _ = nodes[tail].recs()
		}
		if tail == nilTok {
			dst.setFirst(nodes, r)
		} else {
			prev, _ := nodes[tail].recs()
			nodes[tail].setRecs(prev, r)
		}
		_, next := nodes[r].recs()
		nodes[r].setRecs(tail, next)
		return
	}
	src.trim(nodes)
	for i := first; ; i = nodes[i].next {
		dst.link(nodes, tail, i)
		if i == last {
			return
		}
		tail = i
	}
}

// forEach calls fn on every token of herd h in park order, merging the
// lanes by sequence number. fn must not change the herd.
func (p *herdPool) forEach(toks *tokPool, h int32, fn func(i int32)) {
	var at [match.MaxBanks]int32
	for b := range at {
		at[b] = p.h[h].lanes[b].head
	}
	for {
		best, bs := -1, uint64(noSeq)
		for b, i := range at {
			if i != nilTok && toks.nodes[i].seq() < bs {
				best, bs = b, toks.nodes[i].seq()
			}
		}
		if best < 0 {
			return
		}
		i := at[best]
		at[best] = toks.nodes[i].next
		fn(i)
	}
}

// nthSeq returns the sequence number of the m-th token, m from 1, of herd
// h's lanes in mask in park order, counting on each lane b from node at[b];
// those lanes must hold at least m from there.
func (p *herdPool) nthSeq(toks *tokPool, at *[match.MaxBanks]int32, mask uint8, m int32) uint64 {
	if mask&(mask-1) == 0 { // one lane: its m-th token
		i := at[bits.TrailingZeros8(mask)]
		for ; m > 1; m-- {
			i = toks.nodes[i].next
		}
		return toks.nodes[i].seq()
	}
	cur := *at
	for {
		best, bs := 0, uint64(noSeq)
		for f := mask; f != 0; f &= f - 1 {
			b := bits.TrailingZeros8(f)
			if i := cur[b]; i != nilTok && toks.nodes[i].seq() < bs {
				best, bs = b, toks.nodes[i].seq()
			}
		}
		if m--; m == 0 {
			return bs
		}
		cur[best] = toks.nodes[cur[best]].next
	}
}

// pass moves the cursor of each of herd h's lanes in mask past its tokens
// with sequence numbers below end — at[b] to the first token not passed,
// past[b] counting the passed — and returns how many it passed.
func (p *herdPool) pass(toks *tokPool, h int32, at, past *[match.MaxBanks]int32, mask uint8, end uint64) int32 {
	n := int32(0)
	for f := mask; f != 0; f &= f - 1 {
		b := bits.TrailingZeros8(f)
		ln := &p.h[h].lanes[b]
		if at[b] == nilTok {
			continue
		}
		if toks.nodes[ln.tail].seq() < end {
			n += ln.n - past[b]
			at[b], past[b] = nilTok, ln.n
			continue
		}
		for i := at[b]; toks.nodes[i].seq() < end; i = toks.nodes[i].next {
			n++
			past[b]++
			at[b] = toks.nodes[i].next
		}
	}
	return n
}
