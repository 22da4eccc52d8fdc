// Golden-stats determinism check: every bundled kernel's tiny-scale Stats
// digest is pinned in testdata/golden_stats.json, and its countable and
// dynamic counts at the last halt, which the digest leaves out, in
// testdata/halt_counts.json. Any change to simulated behavior — intended
// or not — shows up here before it reaches the benchmark baselines, the
// explore cache or the paper's tables.
//
// If your change legitimately alters simulation results, regenerate the
// files with
//
//	go test -run TestGoldenStats -update .
//
// and commit the new pins with the change.
package wavescalar_test

import (
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	"wavescalar"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.json and testdata/halt_counts.json from this build")

const (
	goldenPath = "testdata/golden_stats.json"
	haltPath   = "testdata/halt_counts.json"
)

// haltCounts pins a run's Countable and Dynamic at the end of the cycle
// its last thread halted in, which sit outside the digest.
type haltCounts struct {
	Countable uint64 `json:"countable_at_halt"`
	Dynamic   uint64 `json:"dynamic_at_halt"`
}

// goldenCase names one pinned run. Splash2 kernels are additionally pinned
// at 4 threads: the multithreaded path (wave ordering across store-buffer
// contexts, cluster-level traffic) has its own ways to drift.
type goldenCase struct {
	name    string
	threads int
}

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, w := range wavescalar.Workloads() {
		cases = append(cases, goldenCase{name: w.Name, threads: 1})
		if w.Build(wavescalar.ScaleTiny).MaxThreads > 1 {
			cases = append(cases, goldenCase{name: w.Name, threads: 4})
		}
	}
	if len(cases) == 0 {
		t.Fatal("no bundled workloads")
	}
	sort.Slice(cases, func(i, j int) bool {
		a, b := cases[i], cases[j]
		if a.name != b.name {
			return a.name < b.name
		}
		return a.threads < b.threads
	})
	return cases
}

func (c goldenCase) key() string {
	return c.name + "/t" + string(rune('0'+c.threads))
}

func TestGoldenStats(t *testing.T) {
	got := make(map[string]string)
	halts := make(map[string]haltCounts)
	for _, c := range goldenCases(t) {
		st, err := runWorkload(wavescalar.Baseline(wavescalar.BaselineArch()),
			c.name, wavescalar.ScaleTiny, c.threads)
		if err != nil {
			t.Fatalf("%s (%d threads): %v", c.name, c.threads, err)
		}
		got[c.key()] = st.Digest()
		halts[c.key()] = haltCounts{st.CountableAtHalt, st.DynamicAtHalt}
	}
	drift := checkPins(t, goldenPath, got, "stats digest")
	if checkPins(t, haltPath, halts, "halt counts") {
		drift = true
	}
	if drift {
		t.Log("If this change is intentional, regenerate with " +
			"`go test -run TestGoldenStats -update .` and commit the pins.")
	}
}

// checkPins compares got with the pins in path key by key, or under
// -update rewrites path from got. It reports whether anything drifted.
func checkPins[V comparable](t *testing.T, path string, got map[string]V, what string) bool {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), path)
		return false
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (run `go test -run TestGoldenStats -update .`): %v", err)
	}
	want := make(map[string]V)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}

	drift := false
	for key, g := range got {
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: no %s recorded in %s", key, what, path)
		case w != g:
			t.Errorf("%s: %s drifted\n  golden: %+v\n  got:    %+v", key, what, w, g)
		default:
			continue
		}
		drift = true
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: %s pinned in %s has no matching workload (removed kernel?)", key, what, path)
			drift = true
		}
	}
	return drift
}
