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

// fifo is a slice-backed queue with an amortized-O(1) pop-front.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) empty() bool { return q.len() == 0 }

// peek returns the i-th element from the front.
func (q *fifo[T]) peek(i int) *T { return &q.items[q.head+i] }

func (q *fifo[T]) popFront() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// remove deletes the i-th element from the front, preserving order. It
// shifts whichever side of the removal point is shorter and banks a freed
// front slot in head, where pushFront reclaims it. Its one caller picks
// from the scheduling queue's eight-entry dispatch window, so the shift
// is a few elements; queues that are removed from at depth are tokLists.
func (q *fifo[T]) remove(i int) T {
	idx := q.head + i
	v := q.items[idx]
	var zero T
	if 2*i < q.len() {
		copy(q.items[q.head+1:idx+1], q.items[q.head:idx])
		q.items[q.head] = zero
		q.head++
		if q.head > 64 && q.head*2 >= len(q.items) {
			n := copy(q.items, q.items[q.head:])
			clear(q.items[n:])
			q.items = q.items[:n]
			q.head = 0
		}
		return v
	}
	copy(q.items[idx:], q.items[idx+1:])
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	return v
}

// pushFront inserts at the head (used for priority bypass entries and
// instruction-miss replays). When the head has no slack it opens room for
// many prepends at once, so a burst costs amortized O(1) per entry instead
// of an O(queue) shift each.
func (q *fifo[T]) pushFront(v T) {
	if q.head == 0 {
		n := len(q.items)
		slack := n/4 + 8
		if cap(q.items) >= n+slack {
			// Spare tail capacity: shift in place instead of allocating.
			q.items = q.items[:n+slack]
			copy(q.items[slack:], q.items[:n])
			clear(q.items[:slack])
		} else {
			items := make([]T, slack+n)
			copy(items[slack:], q.items)
			q.items = items
		}
		q.head = slack
	}
	q.head--
	q.items[q.head] = v
}

// tokNode is a token held at a PE's INPUT stage: queued, parked on a
// k-reject, or released and awaiting reinjection. It sits on exactly one
// tokList at a time and moves between them by relinking, never by copy.
type tokNode struct {
	tok     isa.Token
	readyAt uint64
	// sentAt is the producer's execution-completion cycle, so INPUT can
	// record end-to-end operand delivery latency (Section 4.3's
	// message-latency metric); 0 means no sample is taken.
	sentAt     uint64
	next, prev int32
	// li, req and bank are the destination instruction's local index and
	// required-operand mask at this PE and the matching-table bank the
	// token arrives at, resolved once when the token arrives however many
	// times it is re-offered. (bank rides in what was padding: the node
	// stays 56 bytes.)
	li   int32
	req  uint8
	bank uint16
}

// nilTok ends a list. Node 0 of every pool is reserved for it, so the zero
// tokList is empty and zeroed links point nowhere.
const nilTok int32 = 0

// tokList is an intrusive doubly-linked list threaded through a tokPool's
// nodes by index.
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
	nd := &p.nodes[i]
	nd.next, nd.prev = nilTok, l.tail
	if l.tail != nilTok {
		p.nodes[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
	l.n++
}

// unlink removes node i from l, wherever it sits.
func (p *tokPool) unlink(l *tokList, i int32) {
	nd := &p.nodes[i]
	if nd.prev != nilTok {
		p.nodes[nd.prev].next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next != nilTok {
		p.nodes[nd.next].prev = nd.prev
	} else {
		l.tail = nd.prev
	}
	l.n--
}

// moveRun moves the n-node run first..last of src to the tail of dst,
// keeping order. Only the links at the run's two ends and its neighbours
// are written, however long the run is.
func (p *tokPool) moveRun(dst, src *tokList, first, last, n int32) {
	before, after := p.nodes[first].prev, p.nodes[last].next
	if before != nilTok {
		p.nodes[before].next = after
	} else {
		src.head = after
	}
	if after != nilTok {
		p.nodes[after].prev = before
	} else {
		src.tail = before
	}
	src.n -= n
	p.nodes[first].prev = dst.tail
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
		p.nodes[src.head].prev = dst.tail
		dst.tail = src.tail
		dst.n += src.n
	}
	*src = tokList{}
}
