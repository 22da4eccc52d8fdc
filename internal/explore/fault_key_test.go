package explore

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// Fault scripts are cache-key material: the key must depend on the
// script's content (never its pointer), and clean runs must keep their
// historical keys whether the script field is nil or merely empty.
func TestCellKeyFaultScript(t *testing.T) {
	cfg := sim.Baseline(sim.BaselineArch())
	clean := CellKey(cfg, "gzip", workload.Tiny, []int{1})

	withEmpty := cfg
	withEmpty.Fault = &fault.Script{}
	if got := CellKey(withEmpty, "gzip", workload.Tiny, []int{1}); got != clean {
		t.Error("empty fault script changed the cell key; pre-fault journals would not resume")
	}

	script := func(seed uint64) *fault.Script {
		return &fault.Script{
			Seed:   seed,
			Events: []fault.Event{{Cycle: 100, Kind: fault.KindKillPE, PE: 3}},
		}
	}
	withFault := cfg
	withFault.Fault = script(1)
	faulty := CellKey(withFault, "gzip", workload.Tiny, []int{1})
	if faulty == clean {
		t.Error("fault script did not change the cell key")
	}
	// The script rides behind the clean pre-image as "|fault|<digest>", and
	// the key is the one the fmt-built pre-image gave.
	cleanPre := string(appendCellPreimage(nil, &cfg, "gzip", workload.Tiny, []int{1}))
	faultyPre := string(appendCellPreimage(nil, &withFault, "gzip", workload.Tiny, []int{1}))
	if want := cleanPre + "|fault|" + withFault.Fault.Digest(); faultyPre != want {
		t.Errorf("faulty pre-image = %q, want %q", faultyPre, want)
	}
	if want := "edf0d57f19781e647667136ee8635a78"; faulty != want {
		t.Errorf("faulty cell key = %s, want %s", faulty, want)
	}

	// Content-addressed: a distinct allocation of the same script hashes
	// identically (a pointer leak into the key would break this).
	again := cfg
	again.Fault = script(1)
	if got := CellKey(again, "gzip", workload.Tiny, []int{1}); got != faulty {
		t.Error("identical fault scripts in different allocations produced different keys")
	}

	other := cfg
	other.Fault = script(2)
	if got := CellKey(other, "gzip", workload.Tiny, []int{1}); got == faulty {
		t.Error("different fault scripts collided")
	}
}

// A torn trailing record must be skipped with a logged warning, not
// silently: operators should know a cell will re-simulate.
func TestJournalTornTailLogsWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	content := `{"kind":"cell","key":"aa01","app":"gzip","aipc":1.5,"threads":1}` + "\n" +
		`{"kind":"cell","key":"bb02","app":` // truncated mid-record
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	cache := NewCache()
	n, err := ReplayJournal(path, cache)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if n != 1 {
		t.Errorf("loaded %d records, want 1", n)
	}
	if !strings.Contains(buf.String(), "torn trailing journal record") {
		t.Errorf("no warning logged for torn tail; log output: %q", buf.String())
	}
}
