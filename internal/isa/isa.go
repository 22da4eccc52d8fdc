// Package isa defines the WaveScalar instruction set architecture used by
// the simulator: opcodes, static instructions, dataflow targets, tags,
// tokens, and the wave-ordered memory annotations that accompany every
// memory operation.
//
// A WaveScalar binary is a dataflow graph. Each Instruction names the
// consumers of its result explicitly (its Dests), and executes according to
// the dataflow firing rule: once a token has arrived for every input port,
// the instruction fires. Dynamic instances of the same static instruction
// are disambiguated by the Tag carried on every token: a (thread, wave)
// pair. Waves correspond to runs of code such as a single loop iteration;
// WaveAdvance instructions increment the wave number along loop back edges
// so that tokens from different iterations never alias in the matching
// tables.
package isa

import "fmt"

// Opcode identifies the operation a static instruction performs.
type Opcode uint8

// The WaveScalar opcode set. Arithmetic operates on 64-bit values; signed
// operations interpret them as two's complement, floating-point operations
// as IEEE-754 bit patterns.
const (
	OpNop Opcode = iota // identity; forwards input 0

	// Constant and parameter introduction.
	OpConst // fires on a trigger token (port 0) and emits Imm
	OpParam // placeholder resolved by the loader; fires on trigger, emits the bound parameter

	// Integer arithmetic and logic: ports 0 and 1 are the operands.
	OpAdd
	OpSub
	OpMul
	OpDiv // unsigned; divide by zero yields all-ones
	OpRem // unsigned remainder; by zero yields the dividend
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr  // logical
	OpAddI // input 0 + Imm
	OpMulI // input 0 * Imm
	OpAndI
	OpShlI
	OpShrI

	// Comparisons produce 0 or 1.
	OpEQ
	OpNE
	OpLT  // signed
	OpLE  // signed
	OpULT // unsigned
	OpLTI // signed input0 < Imm

	// Floating point (IEEE-754 double carried in the 64-bit payload).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFLT // produces 0 or 1
	OpI2F // signed integer to double
	OpF2I // double to signed integer (truncating)

	// Dataflow control.
	OpSteer   // port 0 data, port 2 predicate (single bit): forward data to DestsT if true, Dests if false
	OpSelect  // port 0, port 1 data, port 2 predicate: forward port0 if predicate true else port1
	OpWaveAdv // forward input 0 with the tag's wave number incremented

	// Memory. Every memory operation carries a Mem annotation.
	OpLoad   // port 0 address; result is the 64-bit word at that address
	OpStore  // port 0 address, port 1 data; emits the stored value to Dests (often none)
	OpMemNop // port 0 trigger; participates in wave ordering but touches no memory

	// Termination.
	OpHalt // port 0 trigger; signals that the issuing thread has finished

	opcodeCount // sentinel
)

var opcodeNames = [...]string{
	OpNop:     "nop",
	OpConst:   "const",
	OpParam:   "param",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpDiv:     "div",
	OpRem:     "rem",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpShl:     "shl",
	OpShr:     "shr",
	OpAddI:    "addi",
	OpMulI:    "muli",
	OpAndI:    "andi",
	OpShlI:    "shli",
	OpShrI:    "shri",
	OpEQ:      "eq",
	OpNE:      "ne",
	OpLT:      "lt",
	OpLE:      "le",
	OpULT:     "ult",
	OpLTI:     "lti",
	OpFAdd:    "fadd",
	OpFSub:    "fsub",
	OpFMul:    "fmul",
	OpFDiv:    "fdiv",
	OpFLT:     "flt",
	OpI2F:     "i2f",
	OpF2I:     "f2i",
	OpSteer:   "steer",
	OpSelect:  "select",
	OpWaveAdv: "wadv",
	OpLoad:    "load",
	OpStore:   "store",
	OpMemNop:  "memnop",
	OpHalt:    "halt",
}

// String returns the assembly mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// NumInputs reports how many input ports an opcode requires before it can
// fire.
func (op Opcode) NumInputs() int {
	switch op {
	case OpNop, OpConst, OpParam, OpWaveAdv, OpLoad, OpMemNop, OpHalt,
		OpAddI, OpMulI, OpAndI, OpShlI, OpShrI, OpLTI, OpI2F, OpF2I:
		return 1
	case OpSteer:
		return 2 // data on port 0, predicate on port 2 (counted as 2 distinct ports)
	case OpSelect:
		return 3
	default:
		return 2
	}
}

// IsMemory reports whether the opcode participates in wave-ordered memory.
func (op Opcode) IsMemory() bool {
	return op == OpLoad || op == OpStore || op == OpMemNop
}

// IsFloat reports whether the opcode uses the (pipelined) floating point unit.
func (op Opcode) IsFloat() bool {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFLT, OpI2F, OpF2I:
		return true
	}
	return false
}

// Countable reports whether executing the opcode counts toward AIPC
// (Alpha-equivalent instructions per cycle). WaveScalar-specific overhead
// instructions — steering, wave management, nops, constants folded into
// Alpha immediates — are executed and timed but not counted, mirroring the
// paper's metric.
func (op Opcode) Countable() bool {
	switch op {
	case OpNop, OpConst, OpParam, OpSteer, OpWaveAdv, OpMemNop, OpHalt:
		return false
	}
	return true
}

// InstID indexes a static instruction within a Program.
type InstID int32

// NoInst is the nil InstID.
const NoInst InstID = -1

// PortID selects one of an instruction's (up to three) input ports. Port 2
// is the single-bit predicate port on steer and select instructions,
// mirroring the special one-bit third matching-table column in the RTL.
type PortID uint8

// Target names a consumer: an input port of a static instruction.
type Target struct {
	Inst InstID
	Port PortID
}

// String renders a target as "inst.port".
func (t Target) String() string { return fmt.Sprintf("%d.%d", t.Inst, t.Port) }

// Sequence numbers used by wave-ordered memory annotations.
const (
	// SeqNone marks the absence of a predecessor (the wave's first
	// operation) or successor (the wave's last operation).
	SeqNone int32 = -1
	// SeqWild is the '?' wildcard: the neighbour in the chain is not
	// statically known because of a branch.
	SeqWild int32 = -2
)

// MemInfo is the wave-ordered memory annotation attached to every memory
// operation: the operation's sequence number within its wave and the
// sequence numbers of its statically known predecessor and successor
// (SeqWild where control flow makes them unknown).
type MemInfo struct {
	Pred int32
	Seq  int32
	Succ int32
}

// String renders the annotation as "<pred,seq,succ>" using '.' for none
// and '?' for wildcards.
func (m MemInfo) String() string {
	f := func(s int32) string {
		switch s {
		case SeqNone:
			return "."
		case SeqWild:
			return "?"
		default:
			return fmt.Sprintf("%d", s)
		}
	}
	return fmt.Sprintf("<%s,%s,%s>", f(m.Pred), f(m.Seq), f(m.Succ))
}

// Instruction is one static node of the dataflow graph.
type Instruction struct {
	ID   InstID
	Op   Opcode
	Imm  uint64 // immediate operand, constant value, or parameter index
	Name string // optional label for assembly and diagnostics

	// Dests are the consumers of the result. For OpSteer, Dests receives
	// the data when the predicate is false and DestsT when it is true;
	// all other opcodes use only Dests.
	Dests  []Target
	DestsT []Target

	// Mem is the wave-ordering annotation; non-nil iff Op.IsMemory().
	Mem *MemInfo
}

// NumInputs reports the number of input ports this instruction waits on.
func (in *Instruction) NumInputs() int { return in.Op.NumInputs() }

// Tag identifies a dynamic instance: the thread that produced the token and
// the wave it belongs to.
type Tag struct {
	Thread uint32
	Wave   uint32
}

// String renders the tag as "t<thread>.w<wave>".
func (t Tag) String() string { return fmt.Sprintf("t%d.w%d", t.Thread, t.Wave) }

// Token is a value in flight: a tagged datum addressed to one input port of
// one static instruction.
type Token struct {
	Tag   Tag
	Value uint64
	Dest  Target
}

// Param describes a program parameter: a named value the loader binds per
// thread (thread id, base addresses, sizes). The bound value is delivered
// to every listed target at wave 0 when the thread starts.
type Param struct {
	Name    string
	Targets []Target
}

// Program is a complete WaveScalar binary: the static dataflow graph, its
// parameters, and the designated halt instruction.
type Program struct {
	Name   string
	Insts  []Instruction
	Params []Param
	// Halt is the instruction whose firing marks thread completion.
	Halt InstID
}

// Inst returns the instruction with the given id.
func (p *Program) Inst(id InstID) *Instruction { return &p.Insts[id] }

// NumStatic returns the static instruction count, the quantity the paper's
// "WaveScalar capacity" (and the V parameter) is measured against.
func (p *Program) NumStatic() int { return len(p.Insts) }

// CountableStatic returns how many static instructions are
// Alpha-equivalent (countable toward AIPC).
func (p *Program) CountableStatic() int {
	n := 0
	for i := range p.Insts {
		if p.Insts[i].Op.Countable() {
			n++
		}
	}
	return n
}

// Validate checks structural invariants: targets in range, ports within
// each consumer's arity, memory annotations present exactly on memory
// operations, a valid halt instruction, and parameter targets in range.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("isa: program %q has no instructions", p.Name)
	}
	// checkTarget returns what is wrong with t, phrased to follow the name
	// of its holder, or "" — so a valid program formats nothing.
	checkTarget := func(t Target) string {
		if t.Inst < 0 || int(t.Inst) >= len(p.Insts) {
			return fmt.Sprintf("targets out-of-range instruction %d", t.Inst)
		}
		dst := &p.Insts[t.Inst]
		if int(t.Port) >= dst.NumInputs() {
			// Steer uses ports 0 and 2 only.
			if !(dst.Op == OpSteer && t.Port == 2) {
				return fmt.Sprintf("targets port %d of %s %q (arity %d)",
					t.Port, dst.Op, dst.Name, dst.NumInputs())
			}
		}
		if dst.Op == OpSteer && t.Port == 1 {
			return "targets steer port 1 (predicate is port 2)"
		}
		return ""
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.ID != InstID(i) {
			return fmt.Errorf("isa: instruction %d has mismatched ID %d", i, in.ID)
		}
		if in.Op.IsMemory() != (in.Mem != nil) {
			return fmt.Errorf("isa: instruction %d (%s) memory annotation mismatch", i, in.Op)
		}
		for _, t := range in.Dests {
			if bad := checkTarget(t); bad != "" {
				return fmt.Errorf("isa: instruction %d (%s) %s", i, in.Op, bad)
			}
		}
		// A steer with no true-side consumers is legal (it discards).
		for _, t := range in.DestsT {
			if bad := checkTarget(t); bad != "" {
				return fmt.Errorf("isa: instruction %d (%s) [true side] %s", i, in.Op, bad)
			}
		}
		if in.Op != OpSteer && len(in.DestsT) > 0 {
			return fmt.Errorf("isa: instruction %d (%s) has true-side destinations but is not a steer", i, in.Op)
		}
	}
	if p.Halt < 0 || int(p.Halt) >= len(p.Insts) || p.Insts[p.Halt].Op != OpHalt {
		return fmt.Errorf("isa: program %q has no valid halt instruction", p.Name)
	}
	seen := make(map[string]bool, len(p.Params))
	for _, pr := range p.Params {
		if pr.Name == "" {
			return fmt.Errorf("isa: unnamed parameter")
		}
		if seen[pr.Name] {
			return fmt.Errorf("isa: duplicate parameter %q", pr.Name)
		}
		seen[pr.Name] = true
		for _, t := range pr.Targets {
			if bad := checkTarget(t); bad != "" {
				return fmt.Errorf("isa: param %s %s", pr.Name, bad)
			}
		}
	}
	return nil
}
