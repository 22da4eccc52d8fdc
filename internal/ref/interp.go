// Package ref is a functional (untimed) reference interpreter for
// WaveScalar programs. It executes the dataflow graph with an unbounded
// matching store and enforces wave-ordered memory exactly as the store
// buffer does, making it both a golden model for the cycle-level simulator
// and a validator for the memory annotations the graph builder emits.
//
// One Run executes one thread, so a partial match is named by its
// (instruction, wave) pair alone: the matching store is a map from
// inst<<32 | wave to an index into a slab of entries, recycled through a
// free list, so a partial match costs no heap object. A per-instruction
// count of live entries lets a one-input instruction fire without the map
// when its port-0 token arrives and no entry of it is live. That is the
// step the map path would take — make an entry, find it complete, delete
// it, fire — so the firing order and every error stay the same; a stray
// token parked on another port of the instruction keeps its count above
// zero and sends later tokens through the map, where they block on it.
//
// Waves issue memory strictly in order, so only the oldest incomplete
// wave has ripple state; operations that arrive for younger waves wait
// in per-wave lists, linked through one slab and kept in a ring indexed
// by their distance from it, so a wave's turnover allocates nothing. A
// wave that completes while one of its operations waits, and an
// operation that arrives for a wave that has completed, are errors: the
// annotations are inconsistent.
package ref

import (
	"fmt"
	"sort"

	"wavescalar/internal/isa"
	"wavescalar/internal/waveorder"
)

// Memory is the interpreter's flat 64-bit word memory, keyed by byte
// address (accesses use the address as given; kernels use 8-byte strides).
type Memory map[uint64]uint64

// Result summarizes one thread's (or one program's) functional execution.
type Result struct {
	// Dynamic counts the total dynamic instructions executed.
	Dynamic uint64
	// Countable counts the Alpha-equivalent subset (the AIPC numerator).
	Countable uint64
	// ByOpcode breaks down dynamic instructions by opcode.
	ByOpcode map[isa.Opcode]uint64
	// Fired records per-static-instruction execution counts.
	Fired []uint64
	// HaltValue is the token value that arrived at the halt instruction.
	HaltValue uint64
}

// Interp executes programs functionally.
type Interp struct {
	prog *isa.Program
	mem  Memory
	// MaxSteps bounds execution; 0 means the default (100M firings).
	MaxSteps uint64
}

// New creates an interpreter for prog with the given initial memory
// (which it mutates). A nil memory starts empty.
func New(prog *isa.Program, mem Memory) *Interp {
	if mem == nil {
		mem = make(Memory)
	}
	return &Interp{prog: prog, mem: mem}
}

// Memory returns the interpreter's memory.
func (ip *Interp) Memory() Memory { return ip.mem }

// matchEntry is one partial match: the operands that have arrived and a
// bit per arrived port.
type matchEntry struct {
	vals    [3]uint64
	present uint8
}

// memPending is a memory operation waiting for its wave's order, linked
// into its wave's list by next, an index into run.ops (0 ends the list).
type memPending struct {
	inst isa.InstID
	addr uint64
	data uint64
	next int32
}

// waitList is one wave's waiting operations in arrival order: the indexes
// of its first and last in run.ops, 0 when it is empty.
type waitList struct{ head, tail int32 }

// token is a value in flight to one input port, at a wave of the
// running thread.
type token struct {
	value uint64
	wave  uint32
	dest  isa.Target
}

// run is the state of one thread's execution.
type run struct {
	prog   *isa.Program
	mem    Memory
	thread uint32
	res    *Result
	byOp   [256]uint64
	halted bool

	work []token

	// mask is the present-bit mask each instruction needs to fire, and
	// partial counts each instruction's live entries in the slab.
	mask    []uint8
	partial []int32
	index   map[uint64]int32 // inst<<32 | wave -> slab index
	slab    []matchEntry
	free    []int32

	// wave is the ripple state of nextWave, the oldest incomplete wave;
	// pending holds the lists of operations waiting in it and younger
	// waves, whose entries live in ops (entry 0 unused) and recycle
	// through the list that starts at opFree.
	wave     waveorder.Wave
	nextWave uint32
	pending  waveRing
	ops      []memPending
	opFree   int32
}

// waveRing is a ring of the waves from nextWave on, each slot the list of
// one wave's waiting operations, the head nextWave's. A completed wave's
// slot serves the wave len(slots) later, so waves turn over without
// allocating.
type waveRing struct {
	slots []waitList // len is a power of two, or 0
	head  int
	n     int // waves from nextWave whose lists may be non-empty
}

// at returns the list of the wave d after nextWave, growing the ring to
// reach it.
func (w *waveRing) at(d int) *waitList {
	if d >= len(w.slots) {
		size := max(8, len(w.slots))
		for size <= d {
			size *= 2
		}
		slots := make([]waitList, size)
		for i := range w.slots {
			slots[i] = w.slots[(w.head+i)&(len(w.slots)-1)]
		}
		w.slots, w.head = slots, 0
	}
	w.n = max(w.n, d+1)
	return &w.slots[(w.head+d)&(len(w.slots)-1)]
}

// pop retires nextWave's list, which must be empty, and makes the next
// wave's the head.
func (w *waveRing) pop() {
	if w.n == 0 {
		return
	}
	w.head = (w.head + 1) & (len(w.slots) - 1)
	w.n--
}

// park appends op to the list of the wave d after nextWave.
func (r *run) park(d int, op memPending) {
	i := r.opFree
	if i != 0 {
		r.opFree = r.ops[i].next
		r.ops[i] = op
	} else {
		if len(r.ops) == 0 {
			r.ops = append(r.ops, memPending{})
		}
		i = int32(len(r.ops))
		r.ops = append(r.ops, op)
	}
	l := r.pending.at(d)
	if l.tail == 0 {
		l.head = i
	} else {
		r.ops[l.tail].next = i
	}
	l.tail = i
}

// Run executes the program for one thread with the given parameter
// bindings. The "start" parameter defaults to 1 if the program declares it
// and the caller did not bind it.
func (ip *Interp) Run(thread uint32, params map[string]uint64) (*Result, error) {
	prog := ip.prog
	r := &run{
		prog:   prog,
		mem:    ip.mem,
		thread: thread,
		res: &Result{
			ByOpcode: make(map[isa.Opcode]uint64),
			Fired:    make([]uint64, len(prog.Insts)),
		},
		mask:    make([]uint8, len(prog.Insts)),
		partial: make([]int32, len(prog.Insts)),
		index:   make(map[uint64]int32),
	}
	for i := range prog.Insts {
		r.mask[i] = requiredMask(&prog.Insts[i])
	}
	maxSteps := ip.MaxSteps
	if maxSteps == 0 {
		maxSteps = 100_000_000
	}

	// Inject parameters as wave-0 tokens.
	for _, p := range prog.Params {
		v, ok := params[p.Name]
		if !ok {
			if p.Name == "start" {
				v = 1
			} else {
				return nil, fmt.Errorf("ref: parameter %q not bound", p.Name)
			}
		}
		r.route(0, v, p.Targets)
	}

	// Run until all tokens drain: in-flight memory operations complete even
	// after halt fires, as they would in the machine.
	steps := uint64(0)
	for len(r.work) > 0 {
		tok := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("ref: exceeded %d steps (livelock?)", maxSteps)
		}
		id := tok.dest.Inst
		bit := uint8(1) << tok.dest.Port
		if bit == r.mask[id] && r.partial[id] == 0 {
			if err := r.fire(id, tok.wave, [3]uint64{tok.value}); err != nil {
				return nil, err
			}
			continue
		}
		key := uint64(uint32(id))<<32 | uint64(tok.wave)
		slot, ok := r.index[key]
		if !ok {
			slot = r.alloc()
			r.index[key] = slot
			r.partial[id]++
		}
		e := &r.slab[slot]
		if e.present&bit != 0 {
			in := prog.Inst(id)
			return nil, fmt.Errorf("ref: duplicate token for %s %q port %d tag %v",
				in.Op, in.Name, tok.dest.Port, r.tag(tok.wave))
		}
		e.vals[tok.dest.Port] = tok.value
		e.present |= bit
		if e.present == r.mask[id] {
			vals := e.vals
			delete(r.index, key)
			r.partial[id]--
			r.free = append(r.free, slot)
			if err := r.fire(id, tok.wave, vals); err != nil {
				return nil, err
			}
		}
	}

	if !r.halted {
		return nil, r.deadlockError()
	}
	res := r.res
	for op, n := range &r.byOp {
		if n == 0 {
			continue
		}
		res.ByOpcode[isa.Opcode(op)] = n
		res.Dynamic += n
		if isa.Opcode(op).Countable() {
			res.Countable += n
		}
	}
	return res, nil
}

// alloc returns the index of a zeroed slab entry.
func (r *run) alloc() int32 {
	if n := len(r.free); n > 0 {
		slot := r.free[n-1]
		r.free = r.free[:n-1]
		r.slab[slot] = matchEntry{}
		return slot
	}
	r.slab = append(r.slab, matchEntry{})
	return int32(len(r.slab) - 1)
}

func (r *run) tag(wave uint32) isa.Tag { return isa.Tag{Thread: r.thread, Wave: wave} }

// route delivers a result to the consumers in dests.
func (r *run) route(wave uint32, v uint64, dests []isa.Target) {
	for _, d := range dests {
		r.work = append(r.work, token{value: v, wave: wave, dest: d})
	}
}

// fire executes instruction id at wave with its operands.
func (r *run) fire(id isa.InstID, wave uint32, vals [3]uint64) error {
	in := r.prog.Inst(id)
	r.res.Fired[id]++
	r.byOp[in.Op]++
	switch in.Op {
	case isa.OpHalt:
		r.halted = true
		r.res.HaltValue = vals[0]
	case isa.OpSteer:
		if vals[2] != 0 {
			r.route(wave, vals[0], in.DestsT)
		} else {
			r.route(wave, vals[0], in.Dests)
		}
	case isa.OpWaveAdv:
		r.route(wave+1, vals[0], in.Dests)
	case isa.OpLoad, isa.OpStore, isa.OpMemNop:
		return r.memory(id, wave, vals[0], vals[1])
	default:
		r.route(wave, isa.Eval(in.Op, in.Imm, vals[0], vals[1], vals[2]), in.Dests)
	}
	return nil
}

// memory accepts a fired memory operation and issues every operation
// the wave order allows. Wave-ordered memory is sequential across waves:
// only the thread's oldest incomplete wave may issue.
func (r *run) memory(id isa.InstID, wave uint32, addr, data uint64) error {
	in := r.prog.Inst(id)
	if wave < r.nextWave {
		return fmt.Errorf("ref: memory op inst %d %s %q %v arrived after wave %v completed",
			id, in.Op, in.Name, *in.Mem, r.tag(wave))
	}
	op := memPending{inst: id, addr: addr, data: data}
	d := int(wave - r.nextWave)
	if d == 0 && r.wave.CanIssue(*in.Mem) {
		// No operation already waiting could issue when it arrived, and
		// the wave has not moved since, so the new one goes first.
		r.issue(op)
		return r.drain()
	}
	r.park(d, op)
	return nil
}

// drain issues the oldest incomplete wave's waiting operations while
// one can go, each time the first in arrival order, and moves on to the
// next wave when one completes.
func (r *run) drain() error {
	for {
		if r.pending.n > 0 {
			l := r.pending.at(0)
			for prev, i := int32(0), l.head; i != 0; {
				op := r.ops[i]
				if !r.wave.CanIssue(*r.prog.Inst(op.inst).Mem) {
					prev, i = i, op.next
					continue
				}
				if prev == 0 {
					l.head = op.next
				} else {
					r.ops[prev].next = op.next
				}
				if l.tail == i {
					l.tail = prev
				}
				r.ops[i].next, r.opFree = r.opFree, i
				r.issue(op)
				prev, i = 0, l.head
			}
		}
		if !r.wave.Complete() {
			return nil
		}
		if r.pending.n > 0 {
			if n := r.count(*r.pending.at(0)); n > 0 {
				// The wave's chain ended with operations still
				// waiting: the annotations are inconsistent.
				return fmt.Errorf("ref: %d memory ops pending after wave %v completed", n, r.tag(r.nextWave))
			}
			r.pending.pop()
		}
		r.nextWave++
		r.wave = waveorder.Wave{}
	}
}

// count returns how many operations l holds.
func (r *run) count(l waitList) int {
	n := 0
	for i := l.head; i != 0; i = r.ops[i].next {
		n++
	}
	return n
}

// issue performs one memory operation of the oldest incomplete wave.
func (r *run) issue(op memPending) {
	in := r.prog.Inst(op.inst)
	r.wave.Issue(*in.Mem)
	switch in.Op {
	case isa.OpLoad:
		r.route(r.nextWave, r.mem[op.addr], in.Dests)
	case isa.OpStore:
		r.mem[op.addr] = op.data
		r.route(r.nextWave, op.data, in.Dests)
	case isa.OpMemNop:
		r.route(r.nextWave, op.addr, in.Dests)
	}
}

// requiredMask returns the present-bit mask an instruction needs to fire.
func requiredMask(in *isa.Instruction) uint8 {
	switch in.Op {
	case isa.OpSteer:
		return 0b101 // ports 0 and 2
	case isa.OpSelect:
		return 0b111
	default:
		if in.NumInputs() == 1 {
			return 0b001
		}
		return 0b011
	}
}

// deadlockError reports why execution stopped before Halt fired.
func (r *run) deadlockError() error {
	var lines []string
	for key, slot := range r.index {
		id := isa.InstID(key >> 32)
		in := r.prog.Inst(id)
		lines = append(lines, fmt.Sprintf("  partial match: inst %d %s %q tag %v present=%03b",
			id, in.Op, in.Name, r.tag(uint32(key)), r.slab[slot].present))
	}
	for d := 0; d < r.pending.n; d++ {
		for i := r.pending.at(d).head; i != 0; i = r.ops[i].next {
			pm := r.ops[i]
			in := r.prog.Inst(pm.inst)
			lines = append(lines, fmt.Sprintf("  blocked mem op: inst %d %s %q tag %v %v",
				pm.inst, in.Op, in.Name, r.tag(r.nextWave+uint32(d)), *in.Mem))
		}
	}
	sort.Strings(lines)
	const keep = 20
	if len(lines) > keep {
		lines = append(lines[:keep], fmt.Sprintf("  ... and %d more", len(lines)-keep))
	}
	msg := "ref: deadlock: halt never fired and no tokens remain"
	for _, l := range lines {
		msg += "\n" + l
	}
	return fmt.Errorf("%s", msg)
}
