package place

import (
	"testing"

	"wavescalar/internal/graph"
	"wavescalar/internal/isa"
)

// chainProg builds a linear chain of n adds.
func chainProg(n int) *isa.Program {
	b := graph.New("chain")
	s := b.Start()
	v := b.Const(s, 1)
	for i := 0; i < n; i++ {
		v = b.AddI(v, 1)
	}
	b.Halt(v)
	return b.MustFinish()
}

func cfg() Config { return Config{Clusters: 4, Domains: 4, PEs: 8, Virt: 16} }

func TestPlaceCoversAllInstructions(t *testing.T) {
	p := chainProg(100)
	pl, err := Place(p, 2, cfg())
	if err != nil {
		t.Fatal(err)
	}
	for th := uint32(0); th < 2; th++ {
		for i := range p.Insts {
			a := pl.Loc(th, isa.InstID(i))
			if a.Cluster < 0 || a.Cluster >= 4 || a.Domain < 0 || a.Domain >= 4 || a.PE < 0 || a.PE >= 8 {
				t.Fatalf("thread %d inst %d placed at invalid %+v", th, i, a)
			}
		}
	}
}

func TestThreadsGetDistinctHomeClusters(t *testing.T) {
	p := chainProg(20)
	pl, err := Place(p, 4, cfg())
	if err != nil {
		t.Fatal(err)
	}
	homes := map[int]bool{}
	for th := uint32(0); th < 4; th++ {
		homes[pl.Home(th)] = true
		// Every instruction of a small thread stays in its home cluster.
		for i := range p.Insts {
			if got := pl.Loc(th, isa.InstID(i)).Cluster; got != pl.Home(th) {
				t.Errorf("thread %d inst %d in cluster %d, home %d", th, i, got, pl.Home(th))
			}
		}
	}
	if len(homes) != 4 {
		t.Errorf("4 threads spread over %d clusters, want 4", len(homes))
	}
}

func TestChainsStayLocal(t *testing.T) {
	// Consecutive chain instructions should overwhelmingly share a PE or
	// pod — the property that produces the paper's 40%+ pod-local traffic.
	p := chainProg(64)
	pl, err := Place(p, 1, cfg())
	if err != nil {
		t.Fatal(err)
	}
	samePEOrPod := 0
	edges := 0
	for i := range p.Insts {
		for _, d := range p.Insts[i].Dests {
			edges++
			a, b := pl.Loc(0, isa.InstID(i)), pl.Loc(0, d.Inst)
			if a == b || a.SamePod(b) {
				samePEOrPod++
			}
		}
	}
	if frac := float64(samePEOrPod) / float64(edges); frac < 0.5 {
		t.Errorf("only %.0f%% of chain edges are pod-local", frac*100)
	}
}

func TestSpillToNeighborClusters(t *testing.T) {
	// A thread bigger than one cluster's capacity spills outward instead
	// of oversubscribing when other clusters exist.
	c := Config{Clusters: 4, Domains: 1, PEs: 2, Virt: 8} // 16 insts/cluster
	p := chainProg(60)                                    // > 16
	pl, err := Place(p, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[int]bool{}
	for i := range p.Insts {
		clusters[pl.Loc(0, isa.InstID(i)).Cluster] = true
	}
	if len(clusters) < 2 {
		t.Errorf("large thread used %d clusters, want spill", len(clusters))
	}
	if pl.MaxBound() > c.Virt {
		t.Errorf("max bound %d exceeds V=%d despite room to spill", pl.MaxBound(), c.Virt)
	}
}

func TestOversubscribeSingleCluster(t *testing.T) {
	c := Config{Clusters: 1, Domains: 1, PEs: 2, Virt: 4} // capacity 8
	p := chainProg(40)
	pl, err := Place(p, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	if pl.MaxBound() <= c.Virt {
		t.Error("single-cluster placement of an oversized thread must oversubscribe")
	}
}

func TestPodHelpers(t *testing.T) {
	a := PEAddr{Cluster: 0, Domain: 1, PE: 2}
	b := PEAddr{Cluster: 0, Domain: 1, PE: 3}
	c := PEAddr{Cluster: 0, Domain: 1, PE: 4}
	if !a.SamePod(b) {
		t.Error("PEs 2 and 3 share pod 1")
	}
	if a.SamePod(c) {
		t.Error("PEs 2 and 4 do not share a pod")
	}
	if a.Pod() != 1 || c.Pod() != 2 {
		t.Errorf("pod indexes wrong: %d %d", a.Pod(), c.Pod())
	}
}

func TestPlaceErrors(t *testing.T) {
	p := chainProg(4)
	if _, err := Place(p, 0, cfg()); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := Place(p, 1, Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	p := chainProg(50)
	a, _ := Place(p, 3, cfg())
	b, _ := Place(p, 3, cfg())
	for th := uint32(0); th < 3; th++ {
		for i := range p.Insts {
			if a.Loc(th, isa.InstID(i)) != b.Loc(th, isa.InstID(i)) {
				t.Fatalf("placement differs at thread %d inst %d", th, i)
			}
		}
	}
}

func TestScatterPolicyDestroysLocality(t *testing.T) {
	p := chainProg(64)
	local, err := Place(p, 1, cfg())
	if err != nil {
		t.Fatal(err)
	}
	scCfg := cfg()
	scCfg.Policy = PolicyScatter
	scatter, err := Place(p, 1, scCfg)
	if err != nil {
		t.Fatal(err)
	}
	podShare := func(pl *Placement) float64 {
		same, edges := 0, 0
		for i := range p.Insts {
			for _, d := range p.Insts[i].Dests {
				edges++
				a, b := pl.Loc(0, isa.InstID(i)), pl.Loc(0, d.Inst)
				if a == b || a.SamePod(b) {
					same++
				}
			}
		}
		return float64(same) / float64(edges)
	}
	if l, s := podShare(local), podShare(scatter); s >= l {
		t.Errorf("scatter pod-locality (%.2f) should be below chunked (%.2f)", s, l)
	}
}

// recount tallies bindings per PE from Loc alone, independently of the
// placement's own counters.
func recount(pl *Placement, prog *isa.Program, threads int) map[PEAddr]int {
	n := make(map[PEAddr]int)
	for th := 0; th < threads; th++ {
		for i := range prog.Insts {
			n[pl.Loc(uint32(th), isa.InstID(i))]++
		}
	}
	return n
}

// TestBoundCountersTrackLoc: Bound and MaxBound agree with a recount from
// Loc on every PE of the machine.
func TestBoundCountersTrackLoc(t *testing.T) {
	prog, c, threads := chainProg(300), cfg(), 3
	pl, err := Place(prog, threads, c)
	if err != nil {
		t.Fatal(err)
	}
	want, max := recount(pl, prog, threads), 0
	for _, a := range clusterRing(c, 0) {
		if pl.Bound(a) != want[a] {
			t.Fatalf("Bound(%+v) = %d, recount %d", a, pl.Bound(a), want[a])
		}
		if want[a] > max {
			max = want[a]
		}
	}
	if pl.MaxBound() != max {
		t.Fatalf("MaxBound = %d, recount %d", pl.MaxBound(), max)
	}
}

// TestPlaceAllocsIndependentOfShape: the binding counters are one slice,
// so carving the same PEs into clusters and domains allocates nothing more.
func TestPlaceAllocsIndependentOfShape(t *testing.T) {
	prog := chainProg(200)
	allocs := func(c Config) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Place(prog, 1, c); err != nil {
				t.Fatal(err)
			}
		})
	}
	flat := allocs(Config{Clusters: 1, Domains: 1, PEs: 16 * 4 * 8, Virt: 16})
	tiled := allocs(Config{Clusters: 16, Domains: 4, PEs: 8, Virt: 16})
	if tiled != flat {
		t.Errorf("Place allocated %.0f objects on 16x4x8 and %.0f on 1x1x512", tiled, flat)
	}
}
