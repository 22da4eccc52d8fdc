package explore

import (
	"bytes"
	"context"
	"log"
	"os"
	"path/filepath"
	"reflect"
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

// TestFaultSweepCellKeysPinned: the keys a scenario sweep's cells are
// stored under when its fault script is folded into every design point.
// An empty script is no script: its cells keep the clean keys. The
// literals predate SweepSpec.Fault, so journals written before it still
// resume.
func TestFaultSweepCellKeysPinned(t *testing.T) {
	points := testPoints(t, 2)
	apps := testApps(t, "gzip", "fft")
	for name, tc := range map[string]struct {
		script *fault.Script
		want   map[string]string // "app arch" → key
	}{
		"link flips": {&fault.Script{Seed: 7, LinkFlipRate: 0.001}, map[string]string{
			"fft C1 D4 P8 V128 M128 L1:16KB L2:0MB":  "7ffc9544dde5579217af5f9b22437d4a",
			"fft C1 D4 P8 V128 M128 L1:8KB L2:0MB":   "7d1492b50cf5913624b0d8b9a84fe492",
			"gzip C1 D4 P8 V128 M128 L1:16KB L2:0MB": "2ab3471d730bd02928a7bfd1e3ebeed9",
			"gzip C1 D4 P8 V128 M128 L1:8KB L2:0MB":  "7235000f74a80d033293d332e48640f7",
		}},
		"empty": {&fault.Script{}, map[string]string{
			"fft C1 D4 P8 V128 M128 L1:16KB L2:0MB":  "85a6d4bd1c429c0c4c3e7b91e3f1d5fc",
			"fft C1 D4 P8 V128 M128 L1:8KB L2:0MB":   "40312e02fb4eff2c12b696e9fc84432a",
			"gzip C1 D4 P8 V128 M128 L1:16KB L2:0MB": "ab977cc1e8855597029fdab01db6f0cc",
			"gzip C1 D4 P8 V128 M128 L1:8KB L2:0MB":  "2fbe2a3b987db72c41b9336651a4cd6c",
		}},
	} {
		exp, err := New(WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		spec := SweepSpec{Scale: workload.Tiny, ThreadCounts: []int{1}, Fault: tc.script}
		if _, err := exp.SweepWith(context.Background(), points, apps, spec); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, c := range exp.Cache().Cells() {
			got[c.App+" "+c.Arch] = c.Key
			if (c.FaultDigest != "") != !tc.script.Empty() {
				t.Errorf("%s: cell %s carries fault digest %q", name, c.Key, c.FaultDigest)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: cell keys\n got %#v\nwant %#v", name, got, tc.want)
		}
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
