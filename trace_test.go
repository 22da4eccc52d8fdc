package wavescalar_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"wavescalar"
)

// traceRun executes the acceptance scenario — fft on a 2-cluster machine
// with tracing attached — and returns the recorder plus both rendered
// sinks.
func traceRun(t *testing.T) (*wavescalar.TraceRecorder, []byte, []byte) {
	t.Helper()
	arch := wavescalar.BaselineArch()
	arch.Clusters = 2
	cfg := wavescalar.Baseline(arch)
	rec := wavescalar.NewTraceRecorder(wavescalar.TraceOptions{})
	cfg.Trace = rec
	if _, err := runWorkload(cfg, "fft", wavescalar.ScaleTiny, 1); err != nil {
		t.Fatalf("traced fft run failed: %v", err)
	}
	var chrome, csv bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := rec.WriteCounterCSV(&csv); err != nil {
		t.Fatalf("WriteCounterCSV: %v", err)
	}
	return rec, chrome.Bytes(), csv.Bytes()
}

// chromeEvent mirrors the trace-event fields the schema test checks.
type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   *float64        `json:"ts"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Args json.RawMessage `json:"args"`
}

// TestChromeTraceSchema validates the acceptance criteria on the Chrome
// trace: it parses, every event carries ts/ph/pid/tid (metadata events
// carry ph/pid/tid but no ts), ts is monotone non-decreasing per
// (pid,tid) track, and the run produced at least one PE fire, one operand
// message and one cache miss.
func TestChromeTraceSchema(t *testing.T) {
	_, chrome, _ := traceRun(t)

	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Chrome trace has no events")
	}

	lastTs := map[[2]int]float64{}
	var fires, operandMsgs, cacheMisses, metadata int
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			t.Fatalf("event %d has no ph: %+v", i, ev)
		}
		if ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d (%s %q) missing pid/tid", i, ev.Ph, ev.Name)
		}
		if ev.Ph == "M" {
			metadata++
			continue
		}
		if ev.Ts == nil {
			t.Fatalf("event %d (%s %q) missing ts", i, ev.Ph, ev.Name)
		}
		track := [2]int{*ev.Pid, *ev.Tid}
		if prev, ok := lastTs[track]; ok && *ev.Ts < prev {
			t.Fatalf("event %d (%q) ts %v precedes %v on track pid=%d tid=%d",
				i, ev.Name, *ev.Ts, prev, *ev.Pid, *ev.Tid)
		}
		lastTs[track] = *ev.Ts
		switch {
		case ev.Name == "fire":
			fires++
		case strings.HasPrefix(ev.Name, "msg:") && strings.Contains(string(ev.Args), "operand"):
			operandMsgs++
		case ev.Name == "L1-miss" || ev.Name == "L2-miss":
			cacheMisses++
		}
	}
	if metadata == 0 {
		t.Error("no metadata (ph:\"M\") track-naming events")
	}
	if fires == 0 {
		t.Error("no PE fire events recorded")
	}
	if operandMsgs == 0 {
		t.Error("no operand message events recorded")
	}
	if cacheMisses == 0 {
		t.Error("no cache miss events recorded")
	}
}

// TestCounterCSVRows checks the CSV covers the whole run: one header plus
// one row per interval up to the last recorded cycle.
func TestCounterCSVRows(t *testing.T) {
	rec, _, csv := traceRun(t)
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	wantRows := int(rec.MaxCycle()/rec.Interval()) + 1
	if got := len(lines) - 1; got != wantRows {
		t.Fatalf("CSV has %d data rows, want %d (maxCycle %d, interval %d)",
			got, wantRows, rec.MaxCycle(), rec.Interval())
	}
	if !strings.HasPrefix(lines[0], "cycle,fires,stalls,") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
}

// TestHottestLinksSkipSelfTraffic: a one-cluster run's grid deliveries
// all stay in cluster 0 (0-hop memory traffic), which crosses no
// inter-cluster link, so the hottest-links summary is empty; on two
// clusters it lists only links between distinct clusters.
func TestHottestLinksSkipSelfTraffic(t *testing.T) {
	for _, clusters := range []int{1, 2} {
		arch := wavescalar.BaselineArch()
		arch.Clusters = clusters
		cfg := wavescalar.Baseline(arch)
		rec := wavescalar.NewTraceRecorder(wavescalar.TraceOptions{})
		cfg.Trace = rec
		if _, err := runWorkload(cfg, "fft", wavescalar.ScaleTiny, 1); err != nil {
			t.Fatalf("C%d: traced fft run failed: %v", clusters, err)
		}
		links := rec.HottestLinks(5)
		for _, l := range links {
			if l.Src == l.Dst {
				t.Errorf("C%d: self link C%d -> C%d (%d msgs) listed as inter-cluster", clusters, l.Src, l.Dst, l.Msgs)
			}
		}
		if clusters == 1 && len(links) != 0 {
			t.Errorf("one-cluster run lists inter-cluster links: %+v", links)
		}
		if clusters == 2 && len(links) == 0 {
			t.Error("two-cluster run lists no inter-cluster links")
		}
	}
}

// TestTraceDeterminism asserts two identical traced runs produce
// byte-identical Chrome JSON and counter CSV.
func TestTraceDeterminism(t *testing.T) {
	_, chrome1, csv1 := traceRun(t)
	_, chrome2, csv2 := traceRun(t)
	if !bytes.Equal(chrome1, chrome2) {
		t.Error("two identical runs produced different Chrome traces")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("two identical runs produced different counter CSVs")
	}
}

// TestTraceDisabledStatsUnchanged asserts tracing is observationally
// transparent: the same run with and without a recorder yields identical
// statistics, every field of them. mcf on one cluster is the reject-heavy
// case (96 % of its input attempts are refused): there the per-token stall
// events are emitted from inside the block moves that re-park a herd, the
// one place the INPUT stage does per-token work only for the recorder.
func TestTraceDisabledStatsUnchanged(t *testing.T) {
	cases := []struct {
		app      string
		scale    wavescalar.Scale
		clusters int
	}{
		{"fft", wavescalar.ScaleTiny, 2},
		{"mcf", wavescalar.ScaleSmall, 1},
	}
	for _, tc := range cases {
		arch := wavescalar.BaselineArch()
		arch.Clusters = tc.clusters
		run := func(withTrace bool) *wavescalar.Stats {
			cfg := wavescalar.Baseline(arch)
			if withTrace {
				cfg.Trace = wavescalar.NewTraceRecorder(wavescalar.TraceOptions{})
			}
			st, err := runWorkload(cfg, tc.app, tc.scale, 1)
			if err != nil {
				t.Fatalf("%s run (trace=%v) failed: %v", tc.app, withTrace, err)
			}
			return st
		}
		plain, traced := run(false), run(true)
		if plain.Digest() != traced.Digest() {
			t.Errorf("tracing perturbed the %s run: cycles %d vs %d, dynamic %d vs %d, input rejects %d vs %d, k-rejects %d vs %d",
				tc.app, plain.Cycles, traced.Cycles, plain.Dynamic, traced.Dynamic,
				plain.InputRejects, traced.InputRejects, plain.Match.KRejects, traced.Match.KRejects)
		}
	}
}
