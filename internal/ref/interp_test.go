package ref

import (
	"strings"
	"testing"

	"wavescalar/internal/isa"
)

// prog builds a program directly from instructions (no builder), so the
// interpreter's own semantics are tested in isolation.
func prog(halt isa.InstID, params []isa.Param, insts ...isa.Instruction) *isa.Program {
	p := &isa.Program{Name: "t", Insts: insts, Params: params, Halt: halt}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func start(targets ...isa.Target) []isa.Param {
	return []isa.Param{{Name: "start", Targets: targets}}
}

func TestArithmeticFlow(t *testing.T) {
	p := prog(2, start(isa.Target{Inst: 0, Port: 0}),
		isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 6, Dests: []isa.Target{{Inst: 1, Port: 0}, {Inst: 1, Port: 1}}},
		isa.Instruction{ID: 1, Op: isa.OpMul, Dests: []isa.Target{{Inst: 2, Port: 0}}},
		isa.Instruction{ID: 2, Op: isa.OpHalt},
	)
	res, err := New(p, nil).Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltValue != 36 {
		t.Errorf("6*6 = %d", res.HaltValue)
	}
}

func TestDuplicateTokenDetected(t *testing.T) {
	// Two producers target the same port of the same instance: the
	// interpreter must flag it (it indicates a malformed graph).
	p := prog(3, start(isa.Target{Inst: 0, Port: 0}, isa.Target{Inst: 1, Port: 0}),
		isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 1, Dests: []isa.Target{{Inst: 2, Port: 0}}},
		isa.Instruction{ID: 1, Op: isa.OpConst, Imm: 2, Dests: []isa.Target{{Inst: 2, Port: 0}}},
		isa.Instruction{ID: 2, Op: isa.OpAdd, Dests: []isa.Target{{Inst: 3, Port: 0}}},
		isa.Instruction{ID: 3, Op: isa.OpHalt},
	)
	_, err := New(p, nil).Run(0, nil)
	if err == nil || !strings.Contains(err.Error(), "duplicate token") {
		t.Fatalf("expected duplicate-token error, got %v", err)
	}
}

func TestDeadlockDiagnostics(t *testing.T) {
	// An instruction waits forever for a second operand.
	p := prog(2, start(isa.Target{Inst: 0, Port: 0}),
		isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 1, Dests: []isa.Target{{Inst: 1, Port: 0}}},
		isa.Instruction{ID: 1, Op: isa.OpAdd, Dests: []isa.Target{{Inst: 2, Port: 0}}},
		isa.Instruction{ID: 2, Op: isa.OpHalt},
	)
	_, err := New(p, nil).Run(0, nil)
	if err == nil {
		t.Fatal("expected deadlock")
	}
	if !strings.Contains(err.Error(), "partial match") || !strings.Contains(err.Error(), "add") {
		t.Errorf("diagnostics should name the stuck instruction: %v", err)
	}
}

func TestBlockedMemOpDiagnostics(t *testing.T) {
	// A load whose chain predecessor never arrives.
	p := prog(2, start(isa.Target{Inst: 0, Port: 0}),
		isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 8, Dests: []isa.Target{{Inst: 1, Port: 0}}},
		isa.Instruction{ID: 1, Op: isa.OpLoad, Mem: &isa.MemInfo{Pred: 0, Seq: 1, Succ: isa.SeqNone},
			Dests: []isa.Target{{Inst: 2, Port: 0}}},
		isa.Instruction{ID: 2, Op: isa.OpHalt},
	)
	_, err := New(p, nil).Run(0, nil)
	if err == nil || !strings.Contains(err.Error(), "blocked mem op") {
		t.Fatalf("expected blocked-mem diagnostics, got %v", err)
	}
}

func TestUnboundParam(t *testing.T) {
	p := prog(1, []isa.Param{{Name: "x", Targets: []isa.Target{{Inst: 0, Port: 0}}}},
		isa.Instruction{ID: 0, Op: isa.OpNop, Dests: []isa.Target{{Inst: 1, Port: 0}}},
		isa.Instruction{ID: 1, Op: isa.OpHalt},
	)
	if _, err := New(p, nil).Run(0, nil); err == nil {
		t.Fatal("unbound parameter accepted")
	}
	if _, err := New(p, nil).Run(0, map[string]uint64{"x": 5}); err != nil {
		t.Fatalf("bound run failed: %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	// An infinite loop: nop feeding itself through a wave advance.
	p := prog(2, start(isa.Target{Inst: 0, Port: 0}),
		isa.Instruction{ID: 0, Op: isa.OpNop, Dests: []isa.Target{{Inst: 1, Port: 0}}},
		isa.Instruction{ID: 1, Op: isa.OpWaveAdv, Dests: []isa.Target{{Inst: 0, Port: 0}}},
		isa.Instruction{ID: 2, Op: isa.OpHalt},
	)
	ip := New(p, nil)
	ip.MaxSteps = 1000
	_, err := ip.Run(0, nil)
	if err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("expected step-limit error, got %v", err)
	}
}

func TestWaveAdvanceRetags(t *testing.T) {
	// wadv increments the wave; the halt sees the value regardless, but a
	// cross-wave match must NOT occur: add gets port 0 at wave 0 and port
	// 1 at wave 1, so it deadlocks — proving tags partition matching.
	p := prog(3, start(isa.Target{Inst: 0, Port: 0}, isa.Target{Inst: 2, Port: 0}),
		isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 1, Dests: []isa.Target{{Inst: 1, Port: 0}}},
		isa.Instruction{ID: 1, Op: isa.OpWaveAdv, Dests: []isa.Target{{Inst: 2, Port: 1}}},
		isa.Instruction{ID: 2, Op: isa.OpAdd, Dests: []isa.Target{{Inst: 3, Port: 0}}},
		isa.Instruction{ID: 3, Op: isa.OpHalt},
	)
	_, err := New(p, nil).Run(0, nil)
	if err == nil {
		t.Fatal("cross-wave operands must not match")
	}
}

func TestMemorySharedAcrossRuns(t *testing.T) {
	mem := Memory{0x10: 3}
	p := prog(2, start(isa.Target{Inst: 0, Port: 0}),
		isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 0x10, Dests: []isa.Target{{Inst: 1, Port: 0}}},
		isa.Instruction{ID: 1, Op: isa.OpLoad, Mem: &isa.MemInfo{Pred: isa.SeqNone, Seq: 0, Succ: isa.SeqNone},
			Dests: []isa.Target{{Inst: 2, Port: 0}}},
		isa.Instruction{ID: 2, Op: isa.OpHalt},
	)
	ip := New(p, mem)
	res, err := ip.Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltValue != 3 {
		t.Errorf("load = %d, want 3", res.HaltValue)
	}
	if ip.Memory()[0x10] != 3 {
		t.Error("memory not shared")
	}
}

func TestResultCounters(t *testing.T) {
	p := prog(2, start(isa.Target{Inst: 0, Port: 0}),
		isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 41, Dests: []isa.Target{{Inst: 1, Port: 0}}},
		isa.Instruction{ID: 1, Op: isa.OpAddI, Imm: 1, Dests: []isa.Target{{Inst: 2, Port: 0}}},
		isa.Instruction{ID: 2, Op: isa.OpHalt},
	)
	res, err := New(p, nil).Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dynamic != 3 || res.Countable != 1 || res.HaltValue != 42 {
		t.Errorf("dynamic=%d countable=%d halt=%d, want 3/1/42", res.Dynamic, res.Countable, res.HaltValue)
	}
	if res.Fired[1] != 1 {
		t.Errorf("fired[1] = %d", res.Fired[1])
	}
	if res.ByOpcode[isa.OpAddI] != 1 {
		t.Errorf("byOpcode = %v", res.ByOpcode)
	}
}

// TestWaveChainErrors breaks a wave's memory chain at run time in the
// two ways a valid program can; both are errors, not a panic or a
// silently dropped operation.
func TestWaveChainErrors(t *testing.T) {
	whole := &isa.MemInfo{Pred: isa.SeqNone, Seq: 0, Succ: isa.SeqNone}
	cases := []struct {
		name string
		prog *isa.Program
		want string
	}{
		// The const feeds a load <0,1,.>, which arrives first and cannot
		// issue, then a load <.,0,.> that starts and ends the wave.
		{"left behind", prog(3, start(isa.Target{Inst: 0, Port: 0}),
			isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 8, Dests: []isa.Target{{Inst: 1, Port: 0}, {Inst: 2, Port: 0}}},
			isa.Instruction{ID: 1, Op: isa.OpLoad, Mem: whole, Dests: []isa.Target{{Inst: 3, Port: 0}}},
			isa.Instruction{ID: 2, Op: isa.OpLoad, Mem: &isa.MemInfo{Pred: 0, Seq: 1, Succ: isa.SeqNone},
				Dests: []isa.Target{{Inst: 3, Port: 0}}},
			isa.Instruction{ID: 3, Op: isa.OpHalt},
		), "ref: 1 memory ops pending after wave t0.w0 completed"},
		// The const feeds the one-operation wave's load and, through a
		// nop, a second load of wave 0 that arrives after the wave ended.
		{"late", prog(4, start(isa.Target{Inst: 0, Port: 0}),
			isa.Instruction{ID: 0, Op: isa.OpConst, Imm: 8, Dests: []isa.Target{{Inst: 2, Port: 0}, {Inst: 1, Port: 0}}},
			isa.Instruction{ID: 1, Op: isa.OpLoad, Mem: whole, Dests: []isa.Target{{Inst: 4, Port: 0}}},
			isa.Instruction{ID: 2, Op: isa.OpNop, Dests: []isa.Target{{Inst: 3, Port: 0}}},
			isa.Instruction{ID: 3, Op: isa.OpLoad, Name: "late", Mem: whole},
			isa.Instruction{ID: 4, Op: isa.OpHalt},
		), `ref: memory op inst 3 load "late" <.,0,.> arrived after wave t0.w0 completed`},
	}
	for _, c := range cases {
		_, err := New(c.prog, Memory{8: 1}).Run(0, nil)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}
