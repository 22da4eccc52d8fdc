package wasm

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wavescalar/internal/graph"
	"wavescalar/internal/isa"
	"wavescalar/internal/ref"
	"wavescalar/internal/workload"
)

func TestAssembleMinimal(t *testing.T) {
	src := `
; a tiny program
.program tiny
.param start -> 0.0
0: const #40 -> 1.0
1: addi #2 -> 2.0
2: halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "tiny" || len(p.Insts) != 3 || p.Halt != 2 {
		t.Fatalf("parsed %q halt=%d insts=%d", p.Name, p.Halt, len(p.Insts))
	}
	res, err := ref.New(p, nil).Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltValue != 42 {
		t.Errorf("result = %d, want 42", res.HaltValue)
	}
}

func TestAssembleMemoryAndSteer(t *testing.T) {
	src := `
.program memsteer
.param start -> 0.0 1.0 4.2
0: const #0x100 -> 2.0
1: const #7 -> 2.1
2: store "st" <.,0,1> -> 3.0
3: memnop <0,1,.> -> 4.0
4: steer -> 6.0 => 5.0
5: nop -> 6.0
6: halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ip := ref.New(p, nil)
	res, err := ip.Run(0, map[string]uint64{"start": 1})
	if err != nil {
		t.Fatal(err)
	}
	if ip.Memory()[0x100] != 7 {
		t.Errorf("store did not land: %v", ip.Memory())
	}
	// start=1 steers true through the nop.
	if res.ByOpcode[isa.OpNop] != 1 {
		t.Errorf("true side not taken: %v", res.ByOpcode)
	}
	if p.Insts[2].Name != "st" {
		t.Errorf("label = %q", p.Insts[2].Name)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no colon", ".program x\n0 const #1"},
		{"bad op", ".program x\n0: frob -> 1.0\n1: halt"},
		{"bad target", ".program x\n0: const #1 -> one.two\n1: halt"},
		{"bad imm", ".program x\n0: const #zz -> 1.0\n1: halt"},
		{"sparse ids", ".program x\n0: const #1 -> 5.0\n5: halt"},
		{"mem missing", ".program x\n0: load -> 1.0\n1: halt"},
		{"mem on alu", ".program x\n0: const #1 <.,0,.> -> 1.0\n1: halt"},
		{"bad mem field", ".program x\n0: load <a,0,.> -> 1.0\n1: halt"},
		{"no halt", ".program x\n0: const #1"},
		{"bad port", ".program x\n0: const #1 -> 1.9\n1: halt"},
		{"unterminated label", ".program x\n0: const \"oops -> 1.0\n1: halt"},
		{"bad label escape", ".program x\n0: const #1 \"a\\q\" -> 1.0\n1: halt"},
		{"empty label", ".program x\n0: const #1 \"\" -> 1.0\n1: halt"},
		{"imm without immediate", ".program x\n0: const #1 -> 1.0\n1: halt #5"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: accepted invalid source", c.name)
		}
	}
}

// TestLabelRoundTrip: a label is read back exactly as Disassemble quotes
// it, whatever it holds — backslashes, quotes, a comment character.
func TestLabelRoundTrip(t *testing.T) {
	for _, label := range []string{`a\b`, `say "hi"`, "x;y", "tab\tend", "ünï", "\xff", "c"} {
		p := &isa.Program{Name: "labels", Halt: 0, Insts: []isa.Instruction{{ID: 0, Op: isa.OpHalt, Name: label}}}
		text := Disassemble(p)
		back, err := Assemble(text)
		if err != nil {
			t.Fatalf("label %q: reassembly failed: %v\n%s", label, err, text)
		}
		if got := back.Insts[0].Name; got != label {
			t.Errorf("label %q read back as %q from\n%s", label, got, text)
		}
		if again := Disassemble(back); again != text {
			t.Errorf("label %q: listing changed on a second round trip:\n%s\nvs\n%s", label, text, again)
		}
	}
}

func TestRoundTripSmallProgram(t *testing.T) {
	b := graph.New("roundtrip")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	l := b.Loop(i0, b.Nop(n))
	i, nn := l.Var(0), l.Var(1)
	v := b.Load(b.ShlI(i, 3))
	b.Store(b.AddI(b.ShlI(i, 3), 256), b.AddI(v, 1))
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, nn)
	b.Halt(out[0])
	orig := b.MustFinish()

	text := Disassemble(orig)
	back, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, text)
	}
	if len(back.Insts) != len(orig.Insts) {
		t.Fatalf("instruction count %d != %d", len(back.Insts), len(orig.Insts))
	}
	for i := range orig.Insts {
		a, z := &orig.Insts[i], &back.Insts[i]
		if a.Op != z.Op || a.Imm != z.Imm || !reflect.DeepEqual(a.Dests, z.Dests) ||
			!reflect.DeepEqual(a.DestsT, z.DestsT) || !reflect.DeepEqual(a.Mem, z.Mem) {
			t.Errorf("inst %d differs:\n  %+v\n  %+v", i, a, z)
		}
	}
	// Functional equivalence.
	seed := ref.Memory{0: 5, 8: 6, 16: 7}
	r1, err := ref.New(orig, cloneMem(seed)).Run(0, map[string]uint64{"n": 3})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ref.New(back, cloneMem(seed)).Run(0, map[string]uint64{"n": 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Dynamic != r2.Dynamic || r1.Countable != r2.Countable {
		t.Errorf("execution differs after round trip")
	}
}

// TestRoundTripAllWorkloads disassembles and reassembles every bundled
// kernel — the strongest structural test of both directions.
func TestRoundTripAllWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			inst := w.Build(workload.Tiny)
			text := Disassemble(inst.Prog)
			back, err := Assemble(text)
			if err != nil {
				t.Fatalf("reassembly failed: %v", err)
			}
			if len(back.Insts) != len(inst.Prog.Insts) {
				t.Fatalf("instruction count mismatch")
			}
			if !strings.Contains(text, ".program "+w.Name) {
				t.Error("missing program header")
			}
			for i := range inst.Prog.Insts {
				a, z := &inst.Prog.Insts[i], &back.Insts[i]
				if a.Op != z.Op || a.Imm != z.Imm {
					t.Fatalf("inst %d differs", i)
				}
			}
		})
	}
}

func cloneMem(m ref.Memory) ref.Memory {
	out := ref.Memory{}
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestFuzzRoundTrip disassembles and reassembles randomly generated
// dataflow programs (loops, steering, conditional stores) and checks
// structural and functional equivalence.
func TestFuzzRoundTrip(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		p := fuzzProgram(rng)
		text := Disassemble(p)
		back, err := Assemble(text)
		if err != nil {
			t.Fatalf("trial %d: reassembly failed: %v", trial, err)
		}
		if !reflect.DeepEqual(p.Insts, back.Insts) {
			t.Fatalf("trial %d: instructions differ after round trip", trial)
		}
		params := map[string]uint64{"n": uint64(3 + rng.Intn(10))}
		r1, err := ref.New(p, ref.Memory{}).Run(0, params)
		if err != nil {
			t.Fatalf("trial %d: original failed: %v", trial, err)
		}
		r2, err := ref.New(back, ref.Memory{}).Run(0, params)
		if err != nil {
			t.Fatalf("trial %d: reassembled failed: %v", trial, err)
		}
		if r1.HaltValue != r2.HaltValue || r1.Dynamic != r2.Dynamic {
			t.Fatalf("trial %d: execution differs after round trip", trial)
		}
	}
}

// fuzzProgram builds a random loop kernel (mirrors the simulator's fuzz
// generator, kept local to avoid an internal test-only dependency).
func fuzzProgram(rng *rand.Rand) *isa.Program {
	b := graph.New("fuzz")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	acc0 := b.Const(n, uint64(rng.Intn(50)))
	l := b.Loop(i0, acc0, b.Nop(n))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)
	pool := []graph.Value{i, acc, b.AndI(i, 7)}
	pick := func() graph.Value { return pool[rng.Intn(len(pool))] }
	for k := 0; k < 3+rng.Intn(8); k++ {
		switch rng.Intn(6) {
		case 0:
			pool = append(pool, b.Add(pick(), pick()))
		case 1:
			pool = append(pool, b.Xor(pick(), pick()))
		case 2:
			pool = append(pool, b.Select(b.ULT(pick(), pick()), pick(), pick()))
		case 3:
			pool = append(pool, b.Load(b.AddI(b.ShlI(b.AndI(pick(), 15), 3), 0x100)))
		case 4:
			b.Store(b.AddI(b.ShlI(b.AndI(pick(), 15), 3), 0x100), pick())
		case 5:
			b.CondStore(b.AndI(pick(), 1), b.AddI(b.ShlI(b.AndI(pick(), 15), 3), 0x200), pick())
		}
	}
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, b.Add(acc, b.AndI(pool[len(pool)-1], 255)), nn)
	b.Halt(out[1])
	return b.MustFinish()
}

// FuzzAssemble: the assembler meets hand-written source (wsasm). It must
// never panic, and a program it accepts must survive its own listing:
// Disassemble's text reassembles to the same program, labels and
// immediates included.
func FuzzAssemble(f *testing.F) {
	f.Add("\n; a tiny program\n.program tiny\n.param start -> 0.0\n0: const #40 -> 1.0\n1: addi #2 -> 2.0\n2: halt\n")
	f.Add(".program memsteer\n.param start -> 0.0 1.0 4.2\n0: const #0x100 -> 2.0\n1: const #7 -> 2.1\n" +
		"2: store \"st\" <.,0,1> -> 3.0\n3: memnop <0,1,.> -> 4.0\n4: steer -> 6.0 => 5.0\n5: nop -> 6.0\n6: halt\n")
	f.Add(Disassemble(fuzzProgram(rand.New(rand.NewSource(500)))))
	for _, bad := range []string{
		".program x\n0 const #1",
		".program x\n0: const #1 -> one.two\n1: halt",
		".program x\n0: const #1 <.,0,.> -> 1.0\n1: halt",
		".program x\n0: const \"oops -> 1.0\n1: halt",
		// Once accepted and then lost or grown by the listing: an immediate
		// on an opcode that takes none, and labels with escapes.
		".program x\n0: halt #5\n",
		".program x\n0: halt \"a\\\\b\"\n",
		".program x\n0: halt \"a\\\"\n",
		".program x\n0: halt \"a\\\"b\"\n",
		".program x\n0: halt \"a\\x3bb\"\n",
	} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		text := Disassemble(p)
		back, err := Assemble(text)
		if err != nil {
			t.Fatalf("listing of an accepted program rejected: %v\n%s", err, text)
		}
		params := append([]isa.Param(nil), p.Params...) // Disassemble lists them by name
		sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
		if len(back.Insts) != len(p.Insts) || back.Halt != p.Halt || !reflect.DeepEqual(back.Params, params) {
			t.Fatalf("program shape differs after round trip:\n%s", text)
		}
		for i := range p.Insts {
			if a, z := &p.Insts[i], &back.Insts[i]; !reflect.DeepEqual(a, z) {
				t.Fatalf("inst %d differs after round trip:\n  %+v\n  %+v\n%s", i, a, z, text)
			}
		}
	})
}
