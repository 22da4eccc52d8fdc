package sim

import (
	"math/bits"

	"wavescalar/internal/isa"
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
	out  []int32 // drain scratch, reused across cycles
}

func newActiveSet(n int) *activeSet {
	return &activeSet{bits: make([]uint64, (n+63)/64)}
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
// The returned slice is valid until the next drain.
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
	s.out = out
	return out
}

// fifo is a queue on a power-of-two ring: nothing is allocated until the
// first push, the buffer then starts at fifoStart slots and doubles when
// full, and every position is masked index arithmetic, so a queue that
// holds a few entries keeps re-using the same few cache lines however many
// pass through it.
type fifo[T any] struct {
	buf  []T // nil, or a power-of-two number of slots
	head int // slot of the front element
	n    int
}

// fifoStart is a ring's first capacity.
const fifoStart = 8

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) empty() bool { return q.n == 0 }

// slot returns the buffer position of the i-th element from the front.
func (q *fifo[T]) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// grow doubles a full ring, unwrapping it so the front lands in slot 0.
func (q *fifo[T]) grow() {
	buf := make([]T, max(fifoStart, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.n)] = v
	q.n++
}

// peek returns the i-th element from the front. The pointer is good until
// the queue is next changed.
func (q *fifo[T]) peek(i int) *T { return &q.buf[q.slot(i)] }

func (q *fifo[T]) popFront() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = q.slot(1)
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
	if 2*i < q.n {
		for ; i > 0; i-- {
			q.buf[q.slot(i)] = q.buf[q.slot(i-1)]
		}
		q.buf[q.head] = zero
		q.head = q.slot(1)
	} else {
		for ; i < q.n-1; i++ {
			q.buf[q.slot(i)] = q.buf[q.slot(i+1)]
		}
		q.buf[q.slot(q.n-1)] = zero
	}
	q.n--
	return v
}

// pushFront inserts at the head (used for priority bypass entries and
// instruction-miss replays).
func (q *fifo[T]) pushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = q.slot(len(q.buf) - 1)
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
// arrives. Most PEs of a many-cluster machine running a few threads never
// see one, so nothing is allocated up front.
const tokPoolStart = 16

// get returns an unlinked node, recycling a freed one before extending the
// pool.
func (p *tokPool) get() int32 {
	if i := p.free; i != nilTok {
		p.free = p.nodes[i].next
		return i
	}
	if p.nodes == nil {
		p.nodes = make([]tokNode, 1, tokPoolStart)
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

// concat moves every node of src to the tail of dst, keeping order, and
// leaves src empty.
func (p *tokPool) concat(dst, src *tokList) {
	if src.head == nilTok {
		return
	}
	if dst.tail == nilTok {
		*dst = *src
	} else {
		p.nodes[dst.tail].next = src.head
		dst.tail = src.tail
		dst.n += src.n
	}
	*src = tokList{}
}
