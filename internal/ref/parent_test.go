// This file is the reference interpreter as it stood before its matching
// store moved to (instruction, wave) keys in a slab: the interpreter's
// source verbatim below the package clause, which makes it an external
// test package so its names stand beside package ref's. It is the oracle
// TestInterpMatchesParent and FuzzInterpMatchesParent hold ref.Interp to;
// do not edit it.
package ref_test

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

type matchKey struct {
	inst isa.InstID
	tag  isa.Tag
}

type matchEntry struct {
	vals    [3]uint64
	present uint8
}

type memPending struct {
	inst isa.InstID
	tag  isa.Tag
	addr uint64
	data uint64
}

// Run executes the program for one thread with the given parameter
// bindings. The "start" parameter defaults to 1 if the program declares it
// and the caller did not bind it.
func (ip *Interp) Run(thread uint32, params map[string]uint64) (*Result, error) {
	res := &Result{
		ByOpcode: make(map[isa.Opcode]uint64),
		Fired:    make([]uint64, len(ip.prog.Insts)),
	}
	maxSteps := ip.MaxSteps
	if maxSteps == 0 {
		maxSteps = 100_000_000
	}

	var work []isa.Token
	// Inject parameters as wave-0 tokens.
	for _, p := range ip.prog.Params {
		v, ok := params[p.Name]
		if !ok {
			if p.Name == "start" {
				v = 1
			} else {
				return nil, fmt.Errorf("ref: parameter %q not bound", p.Name)
			}
		}
		for _, t := range p.Targets {
			work = append(work, isa.Token{
				Tag:   isa.Tag{Thread: thread, Wave: 0},
				Value: v,
				Dest:  t,
			})
		}
	}

	matches := make(map[matchKey]*matchEntry)
	waves := make(map[isa.Tag]*waveorder.Wave)
	pendingMem := make(map[isa.Tag][]memPending) // ops waiting for wave order
	nextWave := uint32(0)                        // waves complete strictly in order
	halted := false
	steps := uint64(0)

	// route delivers a result to the consumers in dests.
	route := func(tag isa.Tag, v uint64, dests []isa.Target) {
		for _, d := range dests {
			work = append(work, isa.Token{Tag: tag, Value: v, Dest: d})
		}
	}

	// issueReady drains every wave-order-ready memory operation for tag.
	// Wave-ordered memory is sequential across waves: only the thread's
	// oldest incomplete wave may issue.
	var issueReady func(tag isa.Tag)
	issueReady = func(tag isa.Tag) {
		if tag.Wave != nextWave {
			return
		}
		w := waves[tag]
		if w == nil {
			w = waveorder.NewWave()
			waves[tag] = w
		}
		for {
			issued := false
			rest := pendingMem[tag][:0]
			for _, pm := range pendingMem[tag] {
				in := ip.prog.Inst(pm.inst)
				if !issued && w.CanIssue(*in.Mem) {
					w.Issue(*in.Mem)
					issued = true
					switch in.Op {
					case isa.OpLoad:
						route(tag, ip.mem[pm.addr], in.Dests)
					case isa.OpStore:
						ip.mem[pm.addr] = pm.data
						route(tag, pm.data, in.Dests)
					case isa.OpMemNop:
						route(tag, pm.addr, in.Dests)
					}
				} else {
					rest = append(rest, pm)
				}
			}
			pendingMem[tag] = rest
			if !issued {
				break
			}
		}
		if w.Complete() {
			delete(waves, tag)
			if len(pendingMem[tag]) > 0 {
				// Operations arrived for a wave that already completed:
				// the annotations are inconsistent. Surface loudly.
				panic(fmt.Sprintf("ref: %d memory ops pending after wave %v completed", len(pendingMem[tag]), tag))
			}
			delete(pendingMem, tag)
			nextWave++
			issueReady(isa.Tag{Thread: tag.Thread, Wave: nextWave})
		}
	}

	fire := func(id isa.InstID, tag isa.Tag, e *matchEntry) {
		in := ip.prog.Inst(id)
		res.Dynamic++
		res.Fired[id]++
		res.ByOpcode[in.Op]++
		if in.Op.Countable() {
			res.Countable++
		}
		switch in.Op {
		case isa.OpHalt:
			halted = true
			res.HaltValue = e.vals[0]
		case isa.OpSteer:
			if e.vals[2] != 0 {
				route(tag, e.vals[0], in.DestsT)
			} else {
				route(tag, e.vals[0], in.Dests)
			}
		case isa.OpWaveAdv:
			route(isa.Tag{Thread: tag.Thread, Wave: tag.Wave + 1}, e.vals[0], in.Dests)
		case isa.OpLoad, isa.OpStore, isa.OpMemNop:
			pendingMem[tag] = append(pendingMem[tag], memPending{
				inst: id, tag: tag, addr: e.vals[0], data: e.vals[1],
			})
			issueReady(tag)
		default:
			v := isa.Eval(in.Op, in.Imm, e.vals[0], e.vals[1], e.vals[2])
			route(tag, v, in.Dests)
		}
	}

	// Run until all tokens drain: in-flight memory operations complete even
	// after halt fires, as they would in the machine.
	for len(work) > 0 {
		tok := work[len(work)-1]
		work = work[:len(work)-1]
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("ref: exceeded %d steps (livelock?)", maxSteps)
		}
		in := ip.prog.Inst(tok.Dest.Inst)
		key := matchKey{inst: tok.Dest.Inst, tag: tok.Tag}
		e := matches[key]
		if e == nil {
			e = &matchEntry{}
			matches[key] = e
		}
		bit := uint8(1) << tok.Dest.Port
		if e.present&bit != 0 {
			return nil, fmt.Errorf("ref: duplicate token for %s %q port %d tag %v",
				in.Op, in.Name, tok.Dest.Port, tok.Tag)
		}
		e.vals[tok.Dest.Port] = tok.Value
		e.present |= bit
		if e.present == requiredMask(in) {
			delete(matches, key)
			fire(tok.Dest.Inst, tok.Tag, e)
		}
	}

	if !halted {
		return nil, ip.deadlockError(matches, pendingMem)
	}
	return res, nil
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
func (ip *Interp) deadlockError(matches map[matchKey]*matchEntry, pendingMem map[isa.Tag][]memPending) error {
	var lines []string
	for k, e := range matches {
		in := ip.prog.Inst(k.inst)
		lines = append(lines, fmt.Sprintf("  partial match: inst %d %s %q tag %v present=%03b",
			k.inst, in.Op, in.Name, k.tag, e.present))
	}
	for tag, ops := range pendingMem {
		for _, pm := range ops {
			in := ip.prog.Inst(pm.inst)
			lines = append(lines, fmt.Sprintf("  blocked mem op: inst %d %s %q tag %v %v",
				pm.inst, in.Op, in.Name, tag, *in.Mem))
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
