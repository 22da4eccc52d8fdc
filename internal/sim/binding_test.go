package sim

import (
	"math/rand"
	"testing"

	"wavescalar/internal/area"
	"wavescalar/internal/isa"
	"wavescalar/internal/place"
	"wavescalar/internal/workload"
)

// bindingApps are the kernels FuzzBinding draws from: single-threaded and
// threaded ones, all quick at tiny scale.
var bindingApps = []string{"gzip", "mcf", "djpeg", "rawdaudio", "fft", "radix", "lu", "water"}

// bindingCase is one drawn FuzzBinding input: a run of threads copies of
// app, on base and on twin, which differ only in V and M.
type bindingCase struct {
	app        string
	inst       *workload.Instance
	threads    int
	base, twin Config
	bind       Binding
}

// bindingOffset turns a byte into an offset from a bound: -2 to 13, the
// two below it one in eight.
func bindingOffset(b byte) int { return int(b%16) - 2 }

// decodeBinding turns fuzz bytes into a bindingCase: data[0] picks the
// workload, data[1] the thread count (1 to 4, within the workload's
// limit), data[2] the shape (1, 2 or 4 clusters of 1, 2 or 4 domains of 2,
// 4 or 8 PEs), and data[3..6] the base's V, the base's M, the twin's V and
// the twin's M, each as an offset (bindingOffset) from its bound: V from
// MaxBound, M from MatchAssoc·K·MaxBound in whole sets.
func decodeBinding(data []byte) (bindingCase, error) {
	for len(data) < 7 {
		data = append(data, 2)
	}
	w, err := workload.ByName(bindingApps[int(data[0])%len(bindingApps)])
	if err != nil {
		return bindingCase{}, err
	}
	c := bindingCase{app: w.Name, inst: w.Build(workload.Tiny)}
	c.threads = 1 + int(data[1])%min(4, c.inst.MaxThreads)
	s := int(data[2])
	arch := BaselineArch()
	arch.Clusters, arch.Domains, arch.PEs = []int{1, 2, 4}[s%3], []int{1, 2, 4}[s/3%3], []int{2, 4, 8}[s/9%3]
	c.base = Baseline(arch)
	if c.bind, err = Bind(c.base, c.inst.Prog, c.threads); err != nil {
		return bindingCase{}, err
	}
	vm := func(dv, dm byte) area.Params {
		a := arch
		a.Virt = max(1, c.bind.MaxBound+bindingOffset(dv))
		a.Match = c.base.MatchAssoc * max(1, c.base.K*c.bind.MaxBound+bindingOffset(dm))
		return a
	}
	c.twin = c.base
	c.base.Arch, c.twin.Arch = vm(data[3], data[4]), vm(data[5], data[6])
	return c, nil
}

// run simulates the case's workload on cfg and returns its digest.
func (c bindingCase) run(cfg Config) (string, error) {
	p, err := New(cfg, c.inst.Prog, c.inst.Params(c.threads), Memory(c.inst.Mem))
	if err != nil {
		return "", err
	}
	st, err := p.Run()
	if err != nil {
		return "", err
	}
	return st.Digest(), nil
}

// bindingSeeds draws the fuzz target's seed corpus: random draws over
// every workload, thread count, shape and offset, and edge draws, where
// one of the four V and M values sits one below its bound and the others
// on it, the draws that tell an off-by-one rule from the right one.
func bindingSeeds() [][]byte {
	rng := rand.New(rand.NewSource(2006))
	seeds := make([][]byte, 48)
	for i := range seeds {
		seeds[i] = make([]byte, 7)
		rng.Read(seeds[i])
		if i%2 == 1 {
			for j := 3; j < 7; j++ {
				seeds[i][j] = 2 // on the bound
			}
			seeds[i][3+i/2%4] = 1 // one below it
		}
	}
	return seeds
}

// FuzzBinding checks Binding.Inert, the V/M half of the explorer's twin
// reuse, on a drawn workload, thread count, shape and pair of V/M values:
// wherever it holds on both, the two runs end with the same Stats digest,
// or fail with the same error.
func FuzzBinding(f *testing.F) {
	for _, b := range bindingSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeBinding(data)
		if err != nil {
			t.Fatal(err)
		}
		if c.base == c.twin || !c.bind.Inert(c.base) || !c.bind.Inert(c.twin) {
			return
		}
		bd, berr := c.run(c.base)
		td, terr := c.run(c.twin)
		if bd != td || (berr == nil) != (terr == nil) || berr != nil && berr.Error() != terr.Error() {
			t.Errorf("%s, %d threads, bound %d: V %d M %d gave %s (%v), V %d M %d gave %s (%v)",
				c.app, c.threads, c.bind.MaxBound, c.base.Arch.Virt, c.base.Arch.Match, bd, berr,
				c.twin.Arch.Virt, c.twin.Arch.Match, td, terr)
		}
	})
}

// TestBindingSeedsCertify keeps the fuzz target's seeds from going vacuous
// and shows each bound tight: a good share of them must be passed to a
// twin of other V and M, some on a machine of several clusters and some
// with several threads, and a good share refused; and of the edge seeds,
// several whose V, and several whose M, sits one below its bound must run
// differently from the same run on the bound, so that a rule one too
// lenient in either clause fails the fuzz target on its seeds.
func TestBindingSeedsCertify(t *testing.T) {
	passed, refused, clusters, threads, tightV, tightM := 0, 0, 0, 0, 0, 0
	for _, b := range bindingSeeds() {
		c, err := decodeBinding(b)
		if err != nil {
			t.Fatal(err)
		}
		if !c.bind.Inert(c.base) || !c.bind.Inert(c.twin) {
			refused++
		} else if c.base != c.twin {
			passed++
			if c.base.Arch.Clusters > 1 {
				clusters++
			}
			if c.threads > 1 {
				threads++
			}
		}
		below, on := c.base, c.twin
		if c.bind.Inert(below) {
			below, on = on, below
		}
		if c.bind.Inert(below) || !c.bind.Inert(on) {
			continue
		}
		vBelow := below.Arch.Virt == c.bind.MaxBound-1 && below.Arch.Match == on.Arch.Match
		mBelow := below.Arch.Match == on.Arch.Match-on.MatchAssoc && below.Arch.Virt == on.Arch.Virt
		if !vBelow && !mBelow {
			continue
		}
		bd, berr := c.run(below)
		od, oerr := c.run(on)
		if bd == od && (berr == nil) == (oerr == nil) {
			continue
		}
		if vBelow {
			tightV++
		} else {
			tightM++
		}
	}
	if passed < 10 || refused < 10 || clusters < 3 || threads < 3 {
		t.Errorf("seeds: %d passed to a twin of other V or M (%d on several clusters, %d with several threads), %d refused; want >= 10, 3, 3 and 10",
			passed, clusters, threads, refused)
	}
	if tightV < 2 || tightM < 2 {
		t.Errorf("edge seeds one below the bound that run differently: %d for V, %d for M; want >= 2 each", tightV, tightM)
	}
}

// TestBindingInert pins the rule at its edges, for fft with one thread on
// the Table 1 machine: V at the bound and one below, M at the bound and
// one set below, an M that is not a whole number of sets, and the zero
// Binding.
func TestBindingInert(t *testing.T) {
	w, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(workload.Tiny)
	cfg := Baseline(BaselineArch())
	bind, err := Bind(cfg, inst.Prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := bind.MaxBound
	at := func(v, m int) Config {
		c := cfg
		c.Arch.Virt, c.Arch.Match = v, m
		return c
	}
	mb := cfg.MatchAssoc * cfg.K * b
	for _, tc := range []struct {
		name string
		bind Binding
		cfg  Config
		want bool
	}{
		{"on both bounds", bind, at(b, mb), true},
		{"well above", bind, at(4*b, 4*mb), true},
		{"V one below", bind, at(b-1, mb), false},
		{"M one set below", bind, at(b, mb-cfg.MatchAssoc), false},
		{"M not whole sets", bind, at(b, mb+1), false},
		{"zero binding", Binding{}, at(b, mb), false},
	} {
		if got := tc.bind.Inert(tc.cfg); got != tc.want {
			t.Errorf("%s: Inert(V %d, M %d) = %v, want %v (bound %d)", tc.name, tc.cfg.Arch.Virt, tc.cfg.Arch.Match, got, tc.want, b)
		}
	}
}

// TestBindMatchesPlacement pins what Bind measures: the placement at an
// unbounded V, which is the placement at V = MaxBound, while one below
// caps a thread's chunk on a machine of several clusters and places it
// otherwise.
func TestBindMatchesPlacement(t *testing.T) {
	w, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(workload.Tiny)
	arch := BaselineArch()
	arch.Clusters = 4
	cfg := Baseline(arch)
	bind, err := Bind(cfg, inst.Prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	placeAt := func(v int) *place.Placement {
		pl, err := place.Place(inst.Prog, 4, place.Config{Clusters: 4, Domains: arch.Domains, PEs: arch.PEs, Virt: v})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	at, below := placeAt(bind.MaxBound), placeAt(bind.MaxBound-1)
	if got := at.MaxBound(); got != bind.MaxBound {
		t.Errorf("placement at V = %d binds %d to its busiest PE, want %d", bind.MaxBound, got, bind.MaxBound)
	}
	same := true
	for i := range inst.Prog.Insts {
		if below.Loc(0, isa.InstID(i)) != at.Loc(0, isa.InstID(i)) {
			same = false
		}
	}
	if same {
		t.Errorf("placement at V = %d equals the unbounded one; the V clause may be loose", bind.MaxBound-1)
	}
}
