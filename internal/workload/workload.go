// Package workload provides the benchmark suite for the reproduction: one
// synthetic kernel per application the paper evaluates (Spec2000,
// Mediabench, Splash2), built with the graph package so each executes as a
// genuine WaveScalar dataflow program.
//
// The kernels are not the original benchmarks — those required DEC Alpha
// binaries and a binary translator — but each mimics its application's
// character along the axes that drive the paper's results: instruction mix
// (integer vs floating point), memory intensity and working-set size,
// control structure, available ILP, and (for Splash2) thread-level
// parallelism over partitioned data.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"wavescalar/internal/isa"
)

// Suite identifies the benchmark group, which the paper evaluates
// separately (Figure 6).
type Suite int

// The suites: the paper's three benchmark groups plus the parameterized
// tiled-kernel family (see tiled.go).
const (
	Spec Suite = iota
	Media
	Splash
	Tiled
)

// Suites lists every suite in display order.
func Suites() []Suite { return []Suite{Spec, Media, Splash, Tiled} }

// String names the suite.
func (s Suite) String() string {
	switch s {
	case Spec:
		return "spec2000"
	case Media:
		return "mediabench"
	case Splash:
		return "splash2"
	case Tiled:
		return "tiled"
	}
	return fmt.Sprintf("suite(%d)", int(s))
}

// SuiteByName resolves a suite's display name to the suite and the thread
// counts it is evaluated at by default: the multithreaded Splash2 kernels
// at {1, 4, 16, 64} (the paper reports each application at its best count),
// the single-threaded suites at {1}.
func SuiteByName(name string) (Suite, []int, bool) {
	for _, s := range Suites() {
		if s.String() == name {
			if s == Splash {
				return s, []int{1, 4, 16, 64}, true
			}
			return s, []int{1}, true
		}
	}
	return 0, nil, false
}

// Scale controls how much dynamic work an instance performs. Iters scales
// loop trip counts; Footprint scales working-set sizes (bytes per thread,
// approximately).
type Scale struct {
	Iters     int
	Footprint int
}

// Tiny is suitable for unit tests, Small for benchmarks, Medium for the
// full Pareto sweep from the command-line tools.
var (
	Tiny   = Scale{Iters: 24, Footprint: 1 << 10}
	Small  = Scale{Iters: 96, Footprint: 8 << 10}
	Medium = Scale{Iters: 384, Footprint: 32 << 10}
)

// Instance is a ready-to-run workload: a program plus its per-thread
// parameters and initial memory image. An instance built at a named scale
// is shared by every caller in the process (see Workload.Build), so
// nothing may write into it: not its program, its memory image, nor the
// maps Params returns. sim.New copies the image and ref.RunThreads clones
// it; a caller that wants to change a program or an image copies it first.
type Instance struct {
	Prog *isa.Program
	Mem  map[uint64]uint64
	// params returns the bindings for one thread of totalThreads.
	params func(thread, totalThreads int) map[string]uint64
	// MaxThreads caps the usable thread count: the workload's
	// Workload.MaxThreads, which newWorkload sets.
	MaxThreads int
}

// Params returns the parameter bindings for each of n threads.
func (in *Instance) Params(n int) []map[string]uint64 {
	if n < 1 || n > in.MaxThreads {
		panic(fmt.Sprintf("workload: %d threads outside [1, %d]", n, in.MaxThreads))
	}
	out := make([]map[string]uint64, n)
	for t := 0; t < n; t++ {
		out[t] = in.params(t, n)
	}
	return out
}

// Workload is one named benchmark.
type Workload struct {
	Name  string
	Suite Suite
	// Build returns the workload's instance at the given scale. At a named
	// scale (Tiny, Small, Medium) every call returns one shared instance,
	// built on the first call; any other scale builds a fresh one, so ad-hoc
	// scales never accumulate. A shared instance must not be written (see
	// Instance).
	Build func(sc Scale) *Instance
	// build constructs a fresh instance at any scale: what Build memoizes.
	build func(sc Scale) *Instance
}

// MaxThreads returns the largest thread count the workload runs at, which
// its suite decides, without building it: MaxSplashThreads for the Splash2
// and tiled kernels, 1 for the single-threaded suites.
func (w Workload) MaxThreads() int {
	if w.Suite == Splash || w.Suite == Tiled {
		return MaxSplashThreads
	}
	return 1
}

// CheckThreads refuses a thread count outside [1, limit] for the workload
// named name. Its words are the one refusal every route that checks a
// thread count gives: the tools (cli.Threads), the simulation entry point
// (design.RunOnceContext) and the daemon's POST /v1/runs.
func CheckThreads(name string, n, limit int) error {
	if n < 1 || n > limit {
		return fmt.Errorf("thread count %d outside [1, %d], the limit of %q", n, limit, name)
	}
	return nil
}

// newWorkload names a kernel builder. Its instances carry the workload's
// thread limit, so a builder does not state it. Build keeps one instance
// per named scale, each built under its own sync.Once: concurrent callers
// of one (workload, scale) share a single build, and a build of one
// workload never waits on another's.
func newWorkload(name string, suite Suite, build func(Scale) *Instance) Workload {
	w := Workload{Name: name, Suite: suite}
	limit := w.MaxThreads()
	fresh := func(sc Scale) *Instance {
		in := build(sc)
		in.MaxThreads = limit
		return in
	}
	w.build = fresh
	var memo [3]struct {
		once sync.Once
		in   *Instance
	}
	w.Build = func(sc Scale) *Instance {
		i := namedScale(sc)
		if i < 0 {
			return fresh(sc)
		}
		e := &memo[i]
		e.once.Do(func() { e.in = fresh(sc) })
		return e.in
	}
	return w
}

// namedScale returns the index of sc among Tiny, Small and Medium, or -1.
func namedScale(sc Scale) int {
	switch sc {
	case Tiny:
		return 0
	case Small:
		return 1
	case Medium:
		return 2
	}
	return -1
}

var registry = map[string]Workload{}

func register(w Workload) {
	if _, dup := registry[w.Name]; dup {
		panic("workload: duplicate " + w.Name)
	}
	registry[w.Name] = w
}

// NotFoundError reports a workload name that resolves to nothing; it
// lists the valid suites so callers (and HTTP clients) can discover the
// namespace instead of guessing.
type NotFoundError struct{ Name string }

func (e *NotFoundError) Error() string {
	suites := make([]string, 0, len(Suites()))
	for _, s := range Suites() {
		suites = append(suites, s.String())
	}
	return fmt.Sprintf("workload: unknown workload %q (valid suites: %s; tiled kernels follow gemm-<os|as|bs>-TmxTnxTk or conv-<ws|os|is>-TxxTyxTc)",
		e.Name, strings.Join(suites, ", "))
}

// ByName resolves a workload name: a registered workload, or — for the
// tiled family — any valid parameter combination, synthesized on the fly.
// Unknown names return a *NotFoundError.
func ByName(name string) (Workload, error) {
	if w, ok := registry[name]; ok {
		return w, nil
	}
	if strings.HasPrefix(name, "gemm-") || strings.HasPrefix(name, "conv-") {
		return ParseTiled(name)
	}
	return Workload{}, &NotFoundError{Name: name}
}

// All returns every workload, sorted by suite then name.
func All() []Workload {
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// BySuite returns the workloads of one suite, sorted by name.
func BySuite(s Suite) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Suite == s {
			out = append(out, w)
		}
	}
	return out
}

// fill seeds memory with n 64-bit words starting at base using a cheap
// deterministic generator.
func fill(mem map[uint64]uint64, base uint64, n int, gen func(i int) uint64) {
	for i := 0; i < n; i++ {
		mem[base+uint64(i)*8] = gen(i)
	}
}

// xorshift is the deterministic value generator used for seeds.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// f bits of a float64.
func f(v float64) uint64 { return isa.F2U(v) }

// singleThread wraps a params function for single-threaded kernels. Every
// call returns p itself, so p is shared like the rest of the instance.
func singleThread(p map[string]uint64) func(int, int) map[string]uint64 {
	return func(int, int) map[string]uint64 { return p }
}
