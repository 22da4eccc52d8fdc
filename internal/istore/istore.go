// Package istore models a processing element's instruction store: the
// small SRAM holding the decoded instructions bound to the PE.
//
// WaveScalar virtualizes PEs: the placement may bind more static
// instructions to a PE than its store holds (the V parameter). The store
// then behaves as a cache over the bound set — dispatching a non-resident
// instruction stalls while it is fetched from memory, which the paper
// measures as roughly three times the cost of a matching-table miss.
//
// An instruction is named by its local index: the placement binds a PE's
// instructions once, when the store is made, numbering them 0, 1, 2, ... in
// binding order, and the store is one array over those indexes, holding
// each instruction's residency and its links on an intrusive LRU list.
// Which instruction a local index stands for is the caller's business (the
// simulator keeps one machine-wide table from instruction instance to
// local index), so an access costs no lookup.
package istore

import "fmt"

// Stats counts instruction-store events.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// none ends the LRU list.
const none int32 = -1

// slot is one bound instruction: whether it is resident and, if it is, its
// neighbours on the LRU list.
type slot struct {
	prev, next int32 // toward the most / least recently used
	resident   bool
}

// Store is one PE's instruction store.
type Store struct {
	capacity int
	slots    []slot // by local index
	mru, lru int32  // ends of the resident list
	resident int
	stats    Stats
}

// NewSet creates one store of the given capacity (the V parameter) per
// entry of bound, the i-th with bound[i] instructions bound to it (local
// indexes 0..bound[i]-1, the matching-table hash input). The first
// capacity of them start out resident, the last of those most recently
// used. The stores and their per-index state come from two allocations
// however many stores there are.
func NewSet(capacity int, bound []int) []Store {
	if capacity <= 0 {
		panic(fmt.Sprintf("istore: capacity must be positive, got %d", capacity))
	}
	total := 0
	for _, n := range bound {
		total += n
	}
	slab := make([]slot, total)
	stores := make([]Store, len(bound))
	for i, n := range bound {
		s := &stores[i]
		*s = Store{capacity: capacity, slots: slab[:n:n], mru: none, lru: none}
		slab = slab[n:]
		for k := 0; k < min(n, capacity); k++ {
			s.touch(int32(k))
		}
	}
	return stores
}

// Bound returns how many instructions are bound to the PE.
func (s *Store) Bound() int { return len(s.slots) }

// Oversubscribed reports whether more instructions are bound than fit.
func (s *Store) Oversubscribed() bool { return len(s.slots) > s.capacity }

// Access touches the instruction at local index idx for dispatch. It
// returns true on a hit; on a miss it makes the instruction resident
// (evicting the LRU one) and returns false, and the caller charges the
// instruction-miss penalty.
func (s *Store) Access(idx int) bool {
	if idx < 0 || idx >= len(s.slots) {
		panic(fmt.Sprintf("istore: access to unbound local index %d (%d bound)", idx, len(s.slots)))
	}
	i := int32(idx)
	if s.slots[i].resident {
		s.stats.Hits++
		if s.mru != i {
			s.unlink(i)
			s.touch(i)
		}
		return true
	}
	s.stats.Misses++
	if s.resident >= s.capacity {
		s.unlink(s.lru)
	}
	s.touch(i)
	return false
}

// touch makes a non-resident instruction the most recently used resident.
func (s *Store) touch(i int32) {
	s.slots[i] = slot{prev: none, next: s.mru, resident: true}
	if s.mru != none {
		s.slots[s.mru].prev = i
	} else {
		s.lru = i
	}
	s.mru = i
	s.resident++
}

// unlink takes a resident instruction out of the store.
func (s *Store) unlink(i int32) {
	sl := &s.slots[i]
	if sl.prev != none {
		s.slots[sl.prev].next = sl.next
	} else {
		s.mru = sl.next
	}
	if sl.next != none {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.lru = sl.prev
	}
	sl.resident = false
	s.resident--
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats { return s.stats }
