package ref_test

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/ref"
	"wavescalar/internal/validate"
	"wavescalar/internal/workload"
)

// threadResult is one thread's Result in a form both interpreters fill.
type threadResult struct {
	Dynamic, Countable uint64
	ByOpcode           map[isa.Opcode]uint64
	Fired              []uint64
	HaltValue          uint64
}

// outcome is what one interpreter did with a program: each thread's
// result in thread order over one shared memory image, the final image,
// and the first error's text or the panic's.
type outcome struct {
	Threads []threadResult
	Mem     map[uint64]uint64
	Err     string
	Panic   string
}

// runThreads runs each thread of params in order through run over a
// copy of mem, as ref.RunThreads does, recording a panic as text.
func runThreads(mem map[uint64]uint64, params []map[string]uint64,
	run func(thread uint32, p map[string]uint64, mem map[uint64]uint64) (threadResult, error)) (out outcome) {
	out.Mem = maps.Clone(mem)
	if out.Mem == nil {
		out.Mem = map[uint64]uint64{}
	}
	defer func() {
		if p := recover(); p != nil {
			out.Panic = fmt.Sprint(p)
		}
	}()
	for t, p := range params {
		res, err := run(uint32(t), p, out.Mem)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		out.Threads = append(out.Threads, res)
	}
	return out
}

func runRef(prog *isa.Program, mem map[uint64]uint64, params []map[string]uint64, maxSteps uint64) outcome {
	return runThreads(mem, params, func(thread uint32, p map[string]uint64, m map[uint64]uint64) (threadResult, error) {
		ip := ref.New(prog, m)
		ip.MaxSteps = maxSteps
		res, err := ip.Run(thread, p)
		if err != nil {
			return threadResult{}, err
		}
		return threadResult{res.Dynamic, res.Countable, res.ByOpcode, res.Fired, res.HaltValue}, nil
	})
}

func runParent(prog *isa.Program, mem map[uint64]uint64, params []map[string]uint64, maxSteps uint64) outcome {
	return runThreads(mem, params, func(thread uint32, p map[string]uint64, m map[uint64]uint64) (threadResult, error) {
		ip := New(prog, m)
		ip.MaxSteps = maxSteps
		res, err := ip.Run(thread, p)
		if err != nil {
			return threadResult{}, err
		}
		return threadResult{res.Dynamic, res.Countable, res.ByOpcode, res.Fired, res.HaltValue}, nil
	})
}

// compareWithParent runs prog through both interpreters and reports any
// difference. The two wave-chain faults the parent mishandled are the
// only allowed departures: where it panicked on operations left behind
// by a completing wave, ref must return the panic's text as its error;
// where an operation arrives for a completed wave, ref must refuse it,
// whatever the parent went on to do with it. It returns ref's outcome.
func compareWithParent(t *testing.T, name string, prog *isa.Program, mem map[uint64]uint64, params []map[string]uint64, maxSteps uint64) outcome {
	t.Helper()
	got := runRef(prog, mem, params, maxSteps)
	want := runParent(prog, mem, params, maxSteps)
	if got.Panic != "" {
		t.Fatalf("%s: ref panicked: %s", name, got.Panic)
	}
	if strings.Contains(want.Panic, "memory ops pending after wave") {
		if got.Err != want.Panic {
			t.Fatalf("%s: parent panicked %q, ref returned %q", name, want.Panic, got.Err)
		}
		return got
	}
	if strings.Contains(got.Err, "arrived after wave") {
		return got
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ref differs from the parent:\n%s", name, describeDiff(got, want))
	}
	return got
}

func describeDiff(got, want outcome) string {
	var b strings.Builder
	if got.Err != want.Err || got.Panic != want.Panic {
		fmt.Fprintf(&b, "error %q panic %q, parent error %q panic %q\n", got.Err, got.Panic, want.Err, want.Panic)
	}
	if len(got.Threads) != len(want.Threads) {
		fmt.Fprintf(&b, "%d threads completed, parent %d\n", len(got.Threads), len(want.Threads))
	}
	for i := 0; i < len(got.Threads) && i < len(want.Threads); i++ {
		if !reflect.DeepEqual(got.Threads[i], want.Threads[i]) {
			g, w := got.Threads[i], want.Threads[i]
			fmt.Fprintf(&b, "thread %d: dynamic %d/%d countable %d/%d halt %d/%d\n",
				i, g.Dynamic, w.Dynamic, g.Countable, w.Countable, g.HaltValue, w.HaltValue)
		}
	}
	if !reflect.DeepEqual(got.Mem, want.Mem) {
		fmt.Fprintf(&b, "final memory differs (%d vs %d words)\n", len(got.Mem), len(want.Mem))
	}
	return b.String()
}

// ledgerSmallCells are the (workload, threads) pairs the benchmark
// ledger runs at small scale.
var ledgerSmallCells = []struct {
	app     string
	threads int
}{
	{"conv-os-4x4x2", 1}, {"raytrace", 1}, {"raytrace", 4}, {"radix", 1},
	{"mcf", 1}, {"twolf", 1}, {"rawdaudio", 1}, {"gzip", 1},
	{"ammp", 1}, {"equake", 1}, {"art", 1},
}

// TestInterpMatchesParent holds the interpreter to its predecessor on
// every suite workload at tiny scale (one thread and up to four) and
// on the ledger's small cells: the whole Result of every thread and
// the final memory must be equal.
func TestInterpMatchesParent(t *testing.T) {
	check := func(w workload.Workload, sc workload.Scale, scale string, threads int) {
		inst := w.Build(sc)
		name := fmt.Sprintf("%s/%s/t%d", w.Name, scale, threads)
		got := compareWithParent(t, name, inst.Prog, inst.Mem, inst.Params(threads), 0)
		if got.Err != "" {
			t.Fatalf("%s: %s", name, got.Err)
		}
	}
	for _, w := range workload.All() {
		check(w, workload.Tiny, "tiny", 1)
		if n := min(4, w.MaxThreads()); n > 1 {
			check(w, workload.Tiny, "tiny", n)
		}
	}
	if testing.Short() {
		return
	}
	for _, c := range ledgerSmallCells {
		w, err := workload.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		check(w, workload.Small, "small", c.threads)
	}
}

// Mutations FuzzInterpMatchesParent applies to a generated program.
const (
	mutNone      = iota
	mutDuplicate // a second token to the same port of a two-input instruction
	mutStray     // a token to port 1 of a one-input instruction
	mutUnbound   // a parameter the thread leaves unbound
	mutSteps     // a step limit the run exceeds
	mutStarve    // port 1 of a two-input instruction never fed
	numMutations
)

// fuzzMaxSteps bounds a fuzzed run: a mutation can make a loop run away.
const fuzzMaxSteps = 4_000_000

// mutate returns a copy of inst's program and parameters with mutation
// m applied at the instruction pick selects, and the step limit to run
// with.
func mutate(inst *workload.Instance, threads int, m uint8, pick uint32) (*isa.Program, []map[string]uint64, uint64) {
	src := inst.Prog
	prog := &isa.Program{Name: src.Name, Halt: src.Halt, Params: src.Params,
		Insts: make([]isa.Instruction, len(src.Insts))}
	copy(prog.Insts, src.Insts)
	params := inst.Params(threads)
	n := len(prog.Insts)
	// find returns the first instruction from pick on, cyclically, that
	// has a destination satisfying ok, and that destination's index.
	find := func(ok func(d isa.Target) bool) (int, int) {
		for k := 0; k < n; k++ {
			i := (int(pick%uint32(n)) + k) % n
			for j, d := range prog.Insts[i].Dests {
				if ok(d) {
					return i, j
				}
			}
		}
		return -1, -1
	}
	inputs := func(d isa.Target) int { return prog.Insts[d.Inst].NumInputs() }
	steps := uint64(fuzzMaxSteps)
	switch m % numMutations {
	case mutDuplicate:
		if i, j := find(func(d isa.Target) bool { return inputs(d) == 2 }); i >= 0 {
			in := &prog.Insts[i]
			in.Dests = append(in.Dests[:len(in.Dests):len(in.Dests)], in.Dests[j])
		}
	case mutStray:
		if i, j := find(func(d isa.Target) bool { return inputs(d) == 1 }); i >= 0 {
			in := &prog.Insts[i]
			in.Dests = append(in.Dests[:len(in.Dests):len(in.Dests)], isa.Target{Inst: in.Dests[j].Inst, Port: 1})
		}
	case mutUnbound:
		prog.Params = append(prog.Params[:len(prog.Params):len(prog.Params)],
			isa.Param{Name: "unbound", Targets: []isa.Target{{Inst: prog.Halt, Port: 0}}})
	case mutSteps:
		steps = 1 + uint64(pick%20_000)
	case mutStarve:
		if i, j := find(func(d isa.Target) bool { return d.Port == 1 && inputs(d) == 2 }); i >= 0 {
			target := prog.Insts[i].Dests[j].Inst
			for k := range prog.Insts {
				in := &prog.Insts[k]
				var kept []isa.Target
				for _, d := range in.Dests {
					if d.Inst != target || d.Port != 1 {
						kept = append(kept, d)
					}
				}
				in.Dests = kept
			}
		}
	}
	return prog, params, steps
}

// malformedSeeds are FuzzInterpMatchesParent's broken programs, each
// with a piece of the error it must reach: a duplicate token, a stray
// port-1 token parked on a one-input instruction (the loop-entry wave
// advance), an unbound parameter, an exceeded step limit, a deadlock
// report cut at 20 lines and a starved two-input instruction.
var malformedSeeds = []struct {
	seed uint64
	m    uint8
	pick uint32
	want string
}{
	{2, mutDuplicate, 0, `duplicate token for add "add" port 0 tag t0.w1`},
	{2, mutStray, 0, `wadv "loop-entry-wadv" tag t0.w0 present=011`},
	{7, mutUnbound, 0, `parameter "unbound" not bound`},
	{2, mutSteps, 5000, "exceeded 5001 steps"},
	{5, mutStray, 7, "\n  ... and 305 more"},
	{1, mutStarve, 0, `partial match: inst 242 ult "ult" tag t0.w1 present=001`},
}

// fuzzCase builds the program a fuzz input names and compares the two
// interpreters on it, returning ref's outcome.
func fuzzCase(t *testing.T, seed uint64, m uint8, pick uint32) outcome {
	c := validate.GenerateCase(seed)
	w, err := workload.ByName(c.Workload)
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(c.Scale())
	threads := min(max(c.Threads, 1), inst.MaxThreads)
	prog, params, steps := mutate(inst, threads, m, pick)
	return compareWithParent(t, c.Describe(), prog, inst.Mem, params, steps)
}

// FuzzInterpMatchesParent holds the interpreter to its predecessor on
// programs the differential validator generates, each optionally broken
// by one mutation, comparing error text as well as results.
func FuzzInterpMatchesParent(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(mutNone), uint32(0))
	}
	for _, s := range malformedSeeds {
		f.Add(s.seed, s.m, s.pick)
	}
	f.Fuzz(func(t *testing.T, seed uint64, m uint8, pick uint32) {
		fuzzCase(t, seed, m, pick)
	})
}

// TestMalformedSeedsReachTheirErrors keeps the fuzz seeds meaningful: a
// generator or workload change that stops one from breaking the program
// the way its comment says fails here.
func TestMalformedSeedsReachTheirErrors(t *testing.T) {
	for _, s := range malformedSeeds {
		if got := fuzzCase(t, s.seed, s.m, s.pick); !strings.Contains(got.Err, s.want) {
			t.Errorf("seed %d mutation %d pick %d: error %q does not contain %q", s.seed, s.m, s.pick, got.Err, s.want)
		}
	}
}
