package istore

import (
	"container/list"
	"math/rand"
	"testing"
)

// bindN returns a store of the given capacity with n instructions bound.
func bindN(capacity, n int) *Store {
	return &NewSet(capacity, []int{n})[0]
}

// TestBindAssignsLocalIndexes checks that the bound instructions are local
// indexes 0..n-1 and that the first capacity of them, in binding order,
// start out resident.
func TestBindAssignsLocalIndexes(t *testing.T) {
	s := bindN(2, 3)
	if s.Bound() != 3 {
		t.Errorf("bound = %d, want 3", s.Bound())
	}
	for i, want := range []bool{true, true, false} {
		if got := s.Access(i); got != want {
			t.Errorf("first access to %d hit = %v, want %v", i, got, want)
		}
	}
}

func TestUnderCapacityAlwaysHits(t *testing.T) {
	s := bindN(4, 4)
	if s.Oversubscribed() {
		t.Fatal("4 of 4 should not be oversubscribed")
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if !s.Access(i) {
				t.Fatalf("round %d: access %d missed", round, i)
			}
		}
	}
	st := s.Stats()
	if st.Misses != 0 || st.Hits != 12 {
		t.Errorf("stats = %+v, want 12 hits 0 misses", st)
	}
}

func TestOversubscriptionThrashes(t *testing.T) {
	s := bindN(2, 4)
	if !s.Oversubscribed() {
		t.Fatal("4 of 2 should be oversubscribed")
	}
	// Cyclic access over 4 instructions with capacity 2 under LRU misses
	// every time after warmup.
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			s.Access(i)
		}
	}
	st := s.Stats()
	if st.Hits != 2 {
		// Insts 0,1 are resident initially; everything else misses.
		t.Errorf("hits = %d, want 2 (initial residents only)", st.Hits)
	}
	if st.Misses != 10 {
		t.Errorf("misses = %d, want 10", st.Misses)
	}
}

func TestLRUKeepsHotInstructions(t *testing.T) {
	s := bindN(2, 3)
	s.Access(0)
	s.Access(1)
	s.Access(0) // 0 is now MRU
	s.Access(2) // evicts 1
	if !s.Access(0) {
		t.Error("hot instruction 0 should still be resident")
	}
	if s.Access(1) {
		t.Error("instruction 1 should have been evicted")
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("zero capacity", func() { bindN(0, 1) })
	s := bindN(2, 2)
	assertPanics("unbound access", func() { s.Access(2) })
	assertPanics("negative access", func() { s.Access(-1) })
}

// refStore is the store this package had before it was index-addressed — a
// map of bound instructions, a map of resident ones and a container/list
// LRU — kept as the reference the array store is held against. An
// instruction's id here is its local index.
type refStore struct {
	capacity int
	resident map[int]*list.Element
	lru      *list.List // front = most recent
	bound    map[int]int
	stats    Stats
}

func newRefStore(capacity int) *refStore {
	return &refStore{
		capacity: capacity,
		resident: make(map[int]*list.Element),
		lru:      list.New(),
		bound:    make(map[int]int),
	}
}

func (s *refStore) bind() int {
	idx := len(s.bound)
	s.bound[idx] = idx
	if s.lru.Len() < s.capacity {
		s.resident[idx] = s.lru.PushFront(idx)
	}
	return idx
}

func (s *refStore) access(id int) bool {
	if el, ok := s.resident[id]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		return true
	}
	s.stats.Misses++
	if s.lru.Len() >= s.capacity {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.resident, back.Value.(int))
	}
	s.resident[id] = s.lru.PushFront(id)
	return false
}

// TestMatchesMapAndListStore walks the array store and the reference
// through one seeded random sequence of accesses and requires the same hit
// or miss from every access and the same counters at the end. The
// capacities cover a one-entry store, the smallest real LRU and a larger
// one; each is walked bound below capacity (where there is room), at it,
// and above it, where the store must miss. Each store shares NewSet's slab
// with a neighbour whose state must not move.
func TestMatchesMapAndListStore(t *testing.T) {
	for _, capacity := range []int{1, 2, 8} {
		for _, bound := range []int{capacity - 1, capacity, capacity + 1, 4 * capacity} {
			if bound == 0 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(bound*16 + capacity)))
			set := NewSet(capacity, []int{bound, 3})
			s := &set[0]
			neighbourSlots := append([]slot(nil), set[1].slots...)
			ref := newRefStore(capacity)
			for i := 0; i < bound; i++ {
				ref.bind()
			}
			for step := 0; step < 4000; step++ {
				// A skewed pick, so some instructions stay hot while the
				// rest churn.
				id := rng.Intn(bound)
				if rng.Intn(2) == 0 {
					id = rng.Intn(1 + id/2)
				}
				if got, want := s.Access(id), ref.access(id); got != want {
					t.Fatalf("capacity %d bound %d step %d: Access(%d) = %v, reference %v", capacity, bound, step, id, got, want)
				}
			}
			if s.Stats() != ref.stats {
				t.Errorf("capacity %d bound %d: stats %+v, reference %+v", capacity, bound, s.Stats(), ref.stats)
			}
			if over := bound > capacity; s.Oversubscribed() != over || (s.Stats().Misses > 0) != over {
				t.Errorf("capacity %d bound %d: oversubscribed %v with %+v", capacity, bound, s.Oversubscribed(), s.Stats())
			}
			for i, sl := range set[1].slots {
				if sl != neighbourSlots[i] {
					t.Fatalf("capacity %d bound %d: the walk moved the neighbour's slot %d: %+v, was %+v", capacity, bound, i, sl, neighbourSlots[i])
				}
			}
		}
	}
}
