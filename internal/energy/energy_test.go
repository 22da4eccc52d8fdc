package energy

import (
	"strings"
	"testing"

	"wavescalar/internal/area"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

func runStats(t *testing.T, arch area.Params) *sim.Stats {
	t.Helper()
	return runApp(t, "fft", arch)
}

// runApp runs one thread of app at the tiny scale on arch's baseline.
func runApp(t *testing.T, app string, arch area.Params) *sim.Stats {
	t.Helper()
	w, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(workload.Tiny)
	cfg := sim.Baseline(arch)
	proc, err := sim.New(cfg, inst.Prog, inst.Params(1), sim.Memory(inst.Mem))
	if err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBreakdownSumsAndEPI(t *testing.T) {
	arch := sim.BaselineArch()
	st := runStats(t, arch)
	b := Estimate(st, arch)
	sum := b.Execute + b.Matching + b.InstStore + b.Network +
		b.StoreBuffer + b.Caches + b.DRAM + b.Leakage
	if b.Total() != sum {
		t.Errorf("Total %v != component sum %v", b.Total(), sum)
	}
	if b.Total() <= 0 {
		t.Fatal("zero energy")
	}
	epi := b.EPI(st.Countable)
	// Sanity band: tens to thousands of pJ per instruction at 90nm.
	if epi < 1 || epi > 100_000 {
		t.Errorf("EPI = %.1f pJ/inst outside sanity band", epi)
	}
	if Breakdown.EPI(Breakdown{}, 0) != 0 {
		t.Error("EPI with zero instructions should be 0")
	}
}

// TestEnergyBreakdownPinned: every component of two tiny runs' estimates
// on the Table 1 baseline, exact. The literals predate the per-event
// constants, so a constant copied wrong fails here.
func TestEnergyBreakdownPinned(t *testing.T) {
	want := map[string]Breakdown{
		"fft": {Execute: 31020, Matching: 88151.1, InstStore: 19172.7, Network: 32270.7, StoreBuffer: 13176,
			Caches: 33028.8, DRAM: 24000, Leakage: 3524.766989361702},
		"mcf": {Execute: 17370.4, Matching: 42255.1, InstStore: 11592.9, Network: 14608.35, StoreBuffer: 4152.6,
			Caches: 20501.600000000002, DRAM: 236000, Leakage: 13931.822218085106},
	}
	arch := sim.BaselineArch()
	for app, w := range want {
		if got := Estimate(runApp(t, app, arch), arch); got != w {
			t.Errorf("%s: breakdown\n got %+v\nwant %+v", app, got, w)
		}
	}
}

func TestLargerTablesCostMore(t *testing.T) {
	// Same run statistics, bigger matching table: matching energy rises
	// (per-access energy scales with capacity).
	arch := sim.BaselineArch()
	st := runStats(t, arch)
	small := Estimate(st, arch)
	big := arch
	big.Match = 128
	small2 := arch
	small2.Match = 16
	eBig := Estimate(st, big)
	eSmall := Estimate(st, small2)
	if eBig.Matching <= eSmall.Matching {
		t.Errorf("bigger matching tables should cost more per access: %v vs %v",
			eBig.Matching, eSmall.Matching)
	}
	_ = small
}

func TestLeakageScalesWithArea(t *testing.T) {
	arch := sim.BaselineArch()
	st := runStats(t, arch)
	base := Estimate(st, arch)
	bigger := arch
	bigger.L2MB = 8
	withL2 := Estimate(st, bigger)
	if withL2.Leakage <= base.Leakage {
		t.Error("more silicon must leak more")
	}
}

func TestEnergyFollowsLocality(t *testing.T) {
	// The network term must be sensitive to the traffic distribution: a
	// run with all-grid traffic costs more than all-pod traffic.
	var local, remote sim.Stats
	local.Traffic[sim.LevelPod][sim.ClassOperand] = 1000
	remote.Traffic[sim.LevelGrid][sim.ClassOperand] = 1000
	arch := sim.BaselineArch()
	if Estimate(&remote, arch).Network <= Estimate(&local, arch).Network {
		t.Error("grid traffic must cost more than pod traffic")
	}
}

func TestFormat(t *testing.T) {
	arch := sim.BaselineArch()
	st := runStats(t, arch)
	out := Estimate(st, arch).Format(st.Countable)
	for _, want := range []string{"matching", "leakage", "total", "pJ/instruction"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted breakdown missing %q", want)
		}
	}
}
