package ref

import (
	"maps"

	"wavescalar/internal/isa"
)

// ThreadsResult aggregates the functional execution of several threads of
// one program over a shared memory image — the reference-side counterpart
// of a multi-threaded simulator run, extracted here so differential
// harnesses compare one value instead of re-deriving it.
type ThreadsResult struct {
	// PerThread holds each thread's individual result, indexed by thread.
	PerThread []*Result
	// HaltValues collects each thread's halt value, indexed by thread.
	HaltValues []uint64
	// Dynamic and Countable sum the per-thread counts — directly
	// comparable to the simulator's aggregate Stats.Dynamic/Countable.
	Dynamic   uint64
	Countable uint64
	// Mem is the final shared memory image.
	Mem Memory
}

// RunThreads executes n threads of prog functionally over one shared
// memory image and aggregates the results. Threads run to completion in
// thread order; because the interpreter is untimed and each thread's
// memory traffic is wave-ordered independently, the final image matches
// any interleaving for programs whose threads write disjoint regions —
// which is the contract of every bundled workload, and exactly what the
// differential harness checks the timed simulator against.
//
// The initial memory is copied, never mutated, so one built workload
// instance can feed both the reference and the simulator.
func RunThreads(prog *isa.Program, initial map[uint64]uint64, params []map[string]uint64) (*ThreadsResult, error) {
	mem := Memory(maps.Clone(initial))
	if mem == nil {
		mem = make(Memory)
	}
	out := &ThreadsResult{
		PerThread:  make([]*Result, len(params)),
		HaltValues: make([]uint64, len(params)),
		Mem:        mem,
	}
	ip := New(prog, mem)
	for t, p := range params {
		res, err := ip.Run(uint32(t), p)
		if err != nil {
			return nil, err
		}
		out.PerThread[t] = res
		out.HaltValues[t] = res.HaltValue
		out.Dynamic += res.Dynamic
		out.Countable += res.Countable
	}
	return out, nil
}
