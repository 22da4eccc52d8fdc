package isa

import (
	"math"
	"testing"
	"testing/quick"
)

// TestOpcodeNamesRoundTrip: every opcode has its own mnemonic, so a name
// in a statistics table or a trace maps back to exactly one opcode.
func TestOpcodeNamesRoundTrip(t *testing.T) {
	seen := map[string]Opcode{}
	for op := Opcode(0); op < opcodeCount; op++ {
		name := op.String()
		if int(op) >= len(opcodeNames) || opcodeNames[op] == "" {
			t.Errorf("opcode %d has no mnemonic", uint8(op))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share the mnemonic %q", uint8(prev), uint8(op), name)
		}
		seen[name] = op
	}
}

func TestNumInputs(t *testing.T) {
	cases := []struct {
		op   Opcode
		want int
	}{
		{OpNop, 1}, {OpConst, 1}, {OpLoad, 1}, {OpHalt, 1}, {OpAddI, 1},
		{OpAdd, 2}, {OpStore, 2}, {OpSteer, 2}, {OpFMul, 2},
		{OpSelect, 3},
	}
	for _, c := range cases {
		if got := c.op.NumInputs(); got != c.want {
			t.Errorf("%v.NumInputs() = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestCountableClassification(t *testing.T) {
	overhead := []Opcode{OpNop, OpConst, OpParam, OpSteer, OpWaveAdv, OpMemNop, OpHalt}
	for _, op := range overhead {
		if op.Countable() {
			t.Errorf("%v should be WaveScalar overhead (not countable)", op)
		}
	}
	counted := []Opcode{OpAdd, OpMul, OpLoad, OpStore, OpSelect, OpFAdd, OpLT}
	for _, op := range counted {
		if !op.Countable() {
			t.Errorf("%v should count toward AIPC", op)
		}
	}
}

func TestMemoryClassification(t *testing.T) {
	for op := Opcode(0); op < opcodeCount; op++ {
		want := op == OpLoad || op == OpStore || op == OpMemNop
		if got := op.IsMemory(); got != want {
			t.Errorf("%v.IsMemory() = %v, want %v", op, got, want)
		}
	}
}

func TestEvalIntegerOps(t *testing.T) {
	cases := []struct {
		op      Opcode
		imm     uint64
		a, b, c uint64
		want    uint64
	}{
		{OpAdd, 0, 2, 3, 0, 5},
		{OpSub, 0, 2, 3, 0, ^uint64(0)}, // wraps
		{OpMul, 0, 7, 6, 0, 42},
		{OpDiv, 0, 42, 6, 0, 7},
		{OpDiv, 0, 42, 0, 0, ^uint64(0)},
		{OpRem, 0, 43, 6, 0, 1},
		{OpRem, 0, 43, 0, 0, 43},
		{OpAnd, 0, 0xF0, 0x3C, 0, 0x30},
		{OpOr, 0, 0xF0, 0x0C, 0, 0xFC},
		{OpXor, 0, 0xFF, 0x0F, 0, 0xF0},
		{OpShl, 0, 1, 4, 0, 16},
		{OpShl, 0, 1, 64, 0, 1}, // shift amount masked to 6 bits
		{OpShr, 0, 16, 4, 0, 1},
		{OpAddI, 5, 10, 0, 0, 15},
		{OpMulI, 3, 10, 0, 0, 30},
		{OpAndI, 0x0F, 0xFF, 0, 0, 0x0F},
		{OpShlI, 3, 1, 0, 0, 8},
		{OpShrI, 3, 8, 0, 0, 1},
		{OpEQ, 0, 4, 4, 0, 1},
		{OpEQ, 0, 4, 5, 0, 0},
		{OpNE, 0, 4, 5, 0, 1},
		{OpULT, 0, 1, ^uint64(0), 0, 1},
		{OpConst, 99, 0, 0, 0, 99},
		{OpNop, 0, 77, 0, 0, 77},
		{OpSelect, 0, 10, 20, 1, 10},
		{OpSelect, 0, 10, 20, 0, 20},
	}
	for _, tc := range cases {
		if got := Eval(tc.op, tc.imm, tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("Eval(%v, imm=%d, %d, %d, %d) = %d, want %d",
				tc.op, tc.imm, tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

func TestEvalSignedComparisons(t *testing.T) {
	neg1 := uint64(math.MaxUint64) // -1 as two's complement
	if Eval(OpLT, 0, neg1, 1, 0) != 1 {
		t.Error("signed -1 < 1 should be true")
	}
	if Eval(OpULT, 0, neg1, 1, 0) != 0 {
		t.Error("unsigned MaxUint64 < 1 should be false")
	}
	if Eval(OpLE, 0, neg1, neg1, 0) != 1 {
		t.Error("-1 <= -1 should be true")
	}
	if Eval(OpLTI, 5, 3, 0, 0) != 1 {
		t.Error("3 < imm 5 should be true")
	}
}

func TestEvalFloatOps(t *testing.T) {
	a, b := F2U(1.5), F2U(2.25)
	if got := U2F(Eval(OpFAdd, 0, a, b, 0)); got != 3.75 {
		t.Errorf("fadd = %v, want 3.75", got)
	}
	if got := U2F(Eval(OpFMul, 0, a, b, 0)); got != 3.375 {
		t.Errorf("fmul = %v, want 3.375", got)
	}
	if got := U2F(Eval(OpFSub, 0, b, a, 0)); got != 0.75 {
		t.Errorf("fsub = %v, want 0.75", got)
	}
	if got := U2F(Eval(OpFDiv, 0, b, a, 0)); got != 1.5 {
		t.Errorf("fdiv = %v, want 1.5", got)
	}
	if Eval(OpFLT, 0, a, b, 0) != 1 {
		t.Error("1.5 < 2.25 should be true")
	}
}

// Property: integer add/sub are inverses and mul distributes over add
// modulo 2^64, guaranteeing the ALU respects two's-complement arithmetic.
func TestEvalArithmeticProperties(t *testing.T) {
	addSubInverse := func(a, b uint64) bool {
		return Eval(OpSub, 0, Eval(OpAdd, 0, a, b, 0), b, 0) == a
	}
	if err := quick.Check(addSubInverse, nil); err != nil {
		t.Errorf("add/sub inverse: %v", err)
	}
	mulDistributes := func(a, b, c uint64) bool {
		left := Eval(OpMul, 0, a, Eval(OpAdd, 0, b, c, 0), 0)
		right := Eval(OpAdd, 0, Eval(OpMul, 0, a, b, 0), Eval(OpMul, 0, a, c, 0), 0)
		return left == right
	}
	if err := quick.Check(mulDistributes, nil); err != nil {
		t.Errorf("mul distributivity: %v", err)
	}
	floatRoundTrip := func(f float64) bool {
		if math.IsNaN(f) {
			return math.IsNaN(U2F(F2U(f)))
		}
		return U2F(F2U(f)) == f
	}
	if err := quick.Check(floatRoundTrip, nil); err != nil {
		t.Errorf("float transport round trip: %v", err)
	}
}

func TestExecLatency(t *testing.T) {
	if ExecLatency(OpMul) != 1 {
		t.Error("integer multiply sets the 20 FO4 critical path: 1 cycle")
	}
	if ExecLatency(OpFMul) != FPLatency {
		t.Errorf("floating point should be pipelined at %d cycles", FPLatency)
	}
}

func TestMemInfoString(t *testing.T) {
	m := MemInfo{Pred: SeqNone, Seq: 0, Succ: SeqWild}
	if got := m.String(); got != "<.,0,?>" {
		t.Errorf("MemInfo.String() = %q, want %q", got, "<.,0,?>")
	}
}

func validProgram() *Program {
	p := &Program{Name: "test"}
	p.Insts = []Instruction{
		{ID: 0, Op: OpConst, Imm: 1, Dests: []Target{{1, 0}}},
		{ID: 1, Op: OpAddI, Imm: 2, Dests: []Target{{2, 0}}},
		{ID: 2, Op: OpHalt},
	}
	p.Halt = 2
	p.Params = []Param{{Name: "start", Targets: []Target{{0, 0}}}}
	return p
}

func TestValidateOK(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"empty", func(p *Program) { p.Insts = nil }},
		{"out of range target", func(p *Program) { p.Insts[0].Dests = []Target{{99, 0}} }},
		{"bad port", func(p *Program) { p.Insts[0].Dests = []Target{{2, 1}} }}, // halt has arity 1
		{"bad id", func(p *Program) { p.Insts[1].ID = 7 }},
		{"missing halt", func(p *Program) { p.Halt = 0 }},
		{"mem annotation on non-mem", func(p *Program) { p.Insts[1].Mem = &MemInfo{} }},
		{"missing mem annotation", func(p *Program) {
			p.Insts[1] = Instruction{ID: 1, Op: OpLoad, Dests: []Target{{2, 0}}}
		}},
		{"destsT on non-steer", func(p *Program) { p.Insts[1].DestsT = []Target{{2, 0}} }},
		{"duplicate param", func(p *Program) {
			p.Params = append(p.Params, Param{Name: "start"})
		}},
		{"unnamed param", func(p *Program) {
			p.Params = append(p.Params, Param{Name: ""})
		}},
		{"param bad target", func(p *Program) {
			p.Params[0].Targets = []Target{{42, 0}}
		}},
	}
	for _, c := range cases {
		p := validProgram()
		c.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid program", c.name)
		}
	}
}

func TestValidateSteerPorts(t *testing.T) {
	p := &Program{Name: "steer"}
	p.Insts = []Instruction{
		{ID: 0, Op: OpConst, Imm: 1, Dests: []Target{{2, 0}}},
		{ID: 1, Op: OpConst, Imm: 0, Dests: []Target{{2, 2}}}, // predicate to port 2: OK
		{ID: 2, Op: OpSteer, Dests: []Target{{3, 0}}, DestsT: []Target{{3, 0}}},
		{ID: 3, Op: OpHalt},
	}
	p.Halt = 3
	if err := p.Validate(); err != nil {
		t.Fatalf("steer program rejected: %v", err)
	}
	// Port 1 of a steer is illegal (predicate lives on port 2).
	p.Insts[1].Dests = []Target{{2, 1}}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a target on steer port 1")
	}
}

// TestValidateTargetErrorText pins the exact text of every target error,
// which is assembled from the holder's name only once a target is found bad.
func TestValidateTargetErrorText(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"out of range", func(p *Program) { p.Insts[0].Dests = []Target{{9, 0}} },
			"isa: instruction 0 (const) targets out-of-range instruction 9"},
		{"negative", func(p *Program) { p.Insts[0].Dests = []Target{{-1, 0}} },
			"isa: instruction 0 (const) targets out-of-range instruction -1"},
		{"bad port", func(p *Program) { p.Insts[2].Dests = []Target{{3, 1}} },
			`isa: instruction 2 (steer) targets port 1 of halt "stop" (arity 1)`},
		{"steer port 1", func(p *Program) { p.Insts[1].Dests = []Target{{2, 1}} },
			"isa: instruction 1 (const) targets steer port 1 (predicate is port 2)"},
		{"true side out of range", func(p *Program) { p.Insts[2].DestsT = []Target{{7, 0}} },
			"isa: instruction 2 (steer) [true side] targets out-of-range instruction 7"},
		{"true side bad port", func(p *Program) { p.Insts[2].DestsT = []Target{{3, 2}} },
			`isa: instruction 2 (steer) [true side] targets port 2 of halt "stop" (arity 1)`},
		{"true side on non-steer", func(p *Program) { p.Insts[0].DestsT = []Target{{3, 0}} },
			"isa: instruction 0 (const) has true-side destinations but is not a steer"},
		{"param out of range", func(p *Program) { p.Params[0].Targets = []Target{{42, 0}} },
			"isa: param start targets out-of-range instruction 42"},
		{"param steer port 1", func(p *Program) { p.Params[0].Targets = []Target{{2, 1}} },
			"isa: param start targets steer port 1 (predicate is port 2)"},
	}
	for _, c := range cases {
		p := &Program{Name: "steer", Halt: 3}
		p.Insts = []Instruction{
			{ID: 0, Op: OpConst, Imm: 1, Dests: []Target{{2, 0}}},
			{ID: 1, Op: OpConst, Imm: 0, Dests: []Target{{2, 2}}},
			{ID: 2, Op: OpSteer, Dests: []Target{{3, 0}}, DestsT: []Target{{3, 0}}},
			{ID: 3, Op: OpHalt, Name: "stop"},
		}
		p.Params = []Param{{Name: "start", Targets: []Target{{0, 0}, {1, 0}}}}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: program rejected before mutation: %v", c.name, err)
		}
		c.mutate(p)
		if err := p.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s:\n got %v\nwant %s", c.name, err, c.want)
		}
	}
}

func TestCountableStatic(t *testing.T) {
	p := validProgram()
	if got := p.CountableStatic(); got != 1 { // only the addi
		t.Errorf("CountableStatic = %d, want 1", got)
	}
	if got := p.NumStatic(); got != 3 {
		t.Errorf("NumStatic = %d, want 3", got)
	}
}

func TestEvalConversions(t *testing.T) {
	if got := U2F(Eval(OpI2F, 0, 42, 0, 0)); got != 42.0 {
		t.Errorf("i2f(42) = %v", got)
	}
	neg := ^uint64(4) // -5 in two's complement (^4 = -5)
	if got := U2F(Eval(OpI2F, 0, neg, 0, 0)); got != -5.0 {
		t.Errorf("i2f(-5) = %v", got)
	}
	if got := Eval(OpF2I, 0, F2U(7.9), 0, 0); got != 7 {
		t.Errorf("f2i(7.9) = %d, want 7 (truncation)", got)
	}
	if got := int64(Eval(OpF2I, 0, F2U(-2.5), 0, 0)); got != -2 {
		t.Errorf("f2i(-2.5) = %d, want -2", got)
	}
}

// Property: i2f then f2i is identity for integers representable in a
// float64 mantissa.
func TestConversionRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		v := uint64(raw) // always exactly representable
		return Eval(OpF2I, 0, Eval(OpI2F, 0, v, 0, 0), 0, 0) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
