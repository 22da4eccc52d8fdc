package validate

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// corpusDir is the checked-in witness corpus the regression suite
// replays (see TestCorpusReplay).
var corpusDir = filepath.Join("..", "..", "testdata", "validate_corpus")

func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := GenerateCase(CaseSeed(1, 0))
	f := &Failure{Case: c, Kind: KindHaltDiverged, Detail: "thread 0 halt value: sim 3, ref 2", Repro: CaseToken(c)}

	path, err := ExportFailure(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(path); !strings.HasPrefix(base, KindHaltDiverged+"-") || !strings.HasSuffix(base, ".json") {
		t.Errorf("witness filename %q, want %s-<hash>.json", base, KindHaltDiverged)
	}
	// Content-addressed: re-exporting the same witness is idempotent.
	again, err := ExportFailure(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if again != path {
		t.Errorf("re-export wrote %s, want %s", again, path)
	}

	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("loaded %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Schema != CorpusSchema || e.Kind != f.Kind || e.Detail != f.Detail || e.Token != f.Repro {
		t.Errorf("entry fields diverge from the exported failure: %+v", e)
	}
	got, err := ParseToken(e.Token)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("witness token decodes to a different case:\n%+v\n%+v", got, c)
	}

	// A failure with no token cannot be a witness.
	if _, err := ExportFailure(dir, &Failure{Case: c, Kind: KindHaltDiverged}); err == nil {
		t.Error("export without a repro token should fail")
	}
	// A missing directory is an empty corpus; a damaged entry is loud.
	if got, err := LoadCorpus(filepath.Join(dir, "nonexistent")); err != nil || len(got) != 0 {
		t.Errorf("missing dir: entries=%v err=%v, want empty and nil", got, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Error("corrupt corpus entry should fail the load")
	}
}

// TestCorpusReplay replays every checked-in witness against the real
// simulator. Each entry is the minimal shrunk case that once exposed a
// divergence; the real simulator must stay clean on all of them, and
// every token must still decode to its recorded case — if either stops
// holding, a fixed bug class is back or the token format broke.
func TestCorpusReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replays full simulator runs")
	}
	entries, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("checked-in corpus is empty; see TestSeedCorpusWitnesses")
	}
	ck := &Checker{}
	for _, e := range entries {
		c, err := ParseToken(e.Token)
		if err != nil {
			t.Errorf("witness %s: token no longer parses: %v", e.Kind, err)
			continue
		}
		if !reflect.DeepEqual(c, e.Case) {
			t.Errorf("witness %s: token decodes to a different case than recorded:\ntoken: %+v\nfile:  %+v", e.Kind, c, e.Case)
		}
		f, err := ck.Check(c)
		if err != nil {
			t.Errorf("witness %s: no longer checkable: %v", e.Kind, err)
			continue
		}
		if f != nil {
			t.Errorf("witness %s reproduces a divergence on the real simulator: %s: %s\n%s",
				e.Kind, f.Kind, f.Detail, f.Case.Describe())
		}
	}
}

// TestSeedCorpusWitnesses regenerates the checked-in halt-divergence
// witness from an injected simulator bug — a cross-cluster halt
// corruption. Set WSVALIDATE_SEED_CORPUS=1 to run it; the exported witness
// is the authentic shrunk output of the fuzz loop, not a hand-written case.
func TestSeedCorpusWitnesses(t *testing.T) {
	if os.Getenv("WSVALIDATE_SEED_CORPUS") == "" {
		t.Skip("set WSVALIDATE_SEED_CORPUS=1 to regenerate testdata/validate_corpus")
	}
	export := func(hook RunSimFunc, wantKind string) {
		t.Helper()
		ck := &Checker{RunSim: hook}
		rep, err := ck.Fuzz(FuzzOptions{Seed: 1, Seeds: 40})
		if err != nil {
			t.Fatalf("fuzz: %v", err)
		}
		for _, f := range rep.Failures {
			if f.Kind == wantKind {
				path, err := ExportFailure(corpusDir, &f)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("exported %s", path)
				return
			}
		}
		t.Fatalf("injected bug for %s never caught in %d seeds", wantKind, rep.Checked)
	}
	// Thread 0's halt value corrupted on multi-cluster
	// machines — the shape of a cross-cluster steering bug; caught by the
	// sim-vs-ref differential.
	export(func(cfg sim.Config, inst *workload.Instance, threads int, fullScan bool) (*SimOutcome, error) {
		out, err := RealSim(cfg, inst, threads, fullScan)
		if err == nil && out.Err == nil && cfg.Arch.Clusters >= 2 {
			out.HaltValues[0]++
		}
		return out, err
	}, KindHaltDiverged)
}
