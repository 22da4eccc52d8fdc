package main

import (
	"os"
	"path/filepath"
	"testing"

	"wavescalar/internal/validate"
)

// TestFuzzSmoke drives the CLI entry point end to end: a small clean
// fuzz run exits 0 and writes a versioned report.
func TestFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is slow")
	}
	out := filepath.Join(t.TempDir(), "fuzz.json")
	code := run([]string{"fuzz", "-seeds", "5", "-quiet", "-o", out})
	if code != 0 {
		t.Fatalf("fuzz exit code %d, want 0", code)
	}
	doc, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"schema":"` + validate.FuzzSchema + `"`; !contains(doc, want) {
		t.Errorf("report missing %s:\n%s", want, doc)
	}
}

// TestReproSmoke: a seed token replays cleanly (exit 0), garbage is a
// usage error (exit 2).
func TestReproSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replay simulates")
	}
	if code := run([]string{"-repro", validate.SeedToken(validate.CaseSeed(1, 0))}); code != 0 {
		t.Fatalf("clean repro exit code %d, want 0", code)
	}
	if code := run([]string{"-repro", "bogus"}); code != 2 {
		t.Fatalf("garbage token exit code %d, want 2", code)
	}
}

func TestUsageErrors(t *testing.T) {
	if code := run([]string{}); code != 2 {
		t.Errorf("no args exit code %d, want 2", code)
	}
	if code := run([]string{"frobnicate"}); code != 2 {
		t.Errorf("unknown command exit code %d, want 2", code)
	}
	if code := run([]string{"trends"}); code != 2 {
		t.Errorf("trends exit code %d, want 2 (an unknown command)", code)
	}
}

func contains(doc []byte, s string) bool {
	return len(doc) >= len(s) && string(doc) != "" && indexOf(doc, s) >= 0
}

func indexOf(doc []byte, s string) int {
	for i := 0; i+len(s) <= len(doc); i++ {
		if string(doc[i:i+len(s)]) == s {
			return i
		}
	}
	return -1
}
