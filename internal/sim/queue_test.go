package sim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestTokNodeSize pins the token path's queue records at 48 bytes, four
// to three cache lines: the INPUT stage's node keeps the token field by field
// with the arrival bank, operand mask and port in what would be padding,
// and the scheduling and output queues keep an instance's tag and operands
// with no pointer or slice header besides the one memory request. A
// reject-heavy run reads hundreds of these per PE and cycle.
func TestTokNodeSize(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uintptr
	}{
		{"tokNode", unsafe.Sizeof(tokNode{})},
		{"schedEntry", unsafe.Sizeof(schedEntry{})},
		{"outEntry", unsafe.Sizeof(outEntry{})},
	} {
		if c.got != 48 {
			t.Errorf("%s is %d bytes, want 48", c.name, c.got)
		}
	}
}

// TestActiveSetArmIdempotent checks double-arms collapse and the drain
// returns sorted, deduplicated indices and fully clears the set.
func TestActiveSetArmIdempotent(t *testing.T) {
	s := newActiveSet(16)
	for _, i := range []int32{9, 3, 9, 3, 12, 0, 0, 9} {
		s.arm(i)
	}
	got := s.drain()
	if want := []int32{0, 3, 9, 12}; !slices.Equal(got, want) {
		t.Fatalf("drain = %v, want %v", got, want)
	}
	if got := s.drain(); len(got) != 0 {
		t.Fatalf("second drain = %v, want empty", got)
	}
	// Arming during iteration of a drained snapshot lands in the next one.
	s.arm(5)
	if got := s.drain(); !slices.Equal(got, []int32{5}) {
		t.Fatalf("re-arm drain = %v, want [5]", got)
	}
}

// TestActiveSetDrainSnapshot arms components while consuming a drain's
// result, mirroring a phase discovering new work: the snapshot must not
// change underfoot and the new arms must appear in the next drain.
func TestActiveSetDrainSnapshot(t *testing.T) {
	s := newActiveSet(8)
	s.arm(2)
	s.arm(6)
	snap := s.drain()
	for _, i := range snap {
		s.arm(i + 1) // discovered work on a neighbour
	}
	if !slices.Equal(snap, []int32{2, 6}) {
		t.Fatalf("snapshot mutated to %v", snap)
	}
	if got := s.drain(); !slices.Equal(got, []int32{3, 7}) {
		t.Fatalf("next drain = %v, want [3 7]", got)
	}
}

// TestFifoRemove cross-checks remove (both the shift-prefix and
// shift-suffix paths, on a ring that wraps and grows) against a reference
// slice.
func TestFifoRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fifo[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			q.push(next)
			ref = append(ref, next)
			next++
			continue
		}
		i := rng.Intn(len(ref))
		got := q.remove(i)
		want := ref[i]
		ref = append(ref[:i], ref[i+1:]...)
		if got != want {
			t.Fatalf("step %d: remove(%d) = %d, want %d", step, i, got, want)
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(ref))
		}
	}
	for i, want := range ref {
		if got := *q.peek(i); got != want {
			t.Fatalf("peek(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestFifoPushFront interleaves pushFront bursts (bypass-completed and
// replayed scheduling entries) with pops, checking order against a
// reference.
func TestFifoPushFront(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var q fifo[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		switch {
		case len(ref) == 0 || rng.Intn(4) == 0:
			q.push(next)
			ref = append(ref, next)
			next++
		case rng.Intn(2) == 0:
			q.pushFront(next)
			ref = append([]int{next}, ref...)
			next++
		default:
			got := q.popFront()
			want := ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: popFront = %d, want %d", step, got, want)
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(ref))
		}
	}
	for i, want := range ref {
		if got := *q.peek(i); got != want {
			t.Fatalf("peek(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestFifoPushFrontAfterDrain prepends to an emptied-then-reused queue:
// the head walks down from wherever the drain left it, wrapping below slot
// 0, and the ring grows when the burst fills it.
func TestFifoPushFrontAfterDrain(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 100; i++ {
		q.push(i)
	}
	for !q.empty() {
		q.popFront()
	}
	for i := 0; i < 50; i++ {
		q.pushFront(i)
	}
	for i := 49; i >= 0; i-- {
		if got := q.popFront(); got != i {
			t.Fatalf("popFront = %d, want %d", got, i)
		}
	}
}
