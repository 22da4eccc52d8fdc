package explore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fakeCell fabricates a content-addressed-looking cell for journal tests
// (the journal never recomputes keys, so synthetic ones are fine).
func fakeCell(i int) Cell {
	return Cell{
		Key: fmt.Sprintf("%032x", i), App: "fft", Arch: "c1d4p8",
		AIPC: float64(i) + 0.5, Threads: 1,
		Cycles: uint64(1000 + i), SimCycles: uint64(1000 + i),
	}
}

func writeJournalLines(t *testing.T, path string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// faultedLine is a journal line as revisions with fault injection wrote it
// for a daemon's fault-injected run: its key carries the script's digest,
// and a "fault" field names it.
const faultedLine = `{"kind":"cell","key":"e52aefdc691e688905a0f1566fa43e34","app":"fft","arch":"C1 D4 P8 V128 M128 L1:32KB L2:1MB","aipc":4.165951359084406,"threads":1,"cycles":4194,"sim_cycles":4194,"traffic":37070,"scale_iters":24,"scale_fp":1024,"k":4,"fault":"bb534d91fb9800b4179dd1fb34d6dab4f466f5e9ba5caa962244315d09d25ebc"}`

// TestJournalRecordBytesPinned pins the journal's record format by its
// bytes: a line as a wspareto sweep wrote it (every provenance field set),
// replayed into a cell and appended back out. A renamed, reordered, dropped
// or added field fails here before it strands an existing journal; the
// faultedLine beside it is skipped.
func TestJournalRecordBytesPinned(t *testing.T) {
	const clean = `{"kind":"cell","key":"11a97cf7a3cddd724489c70f8404d7a1","app":"conv-os-4x4x2","arch":"C1 D4 P8 V128 M128 L1:8KB L2:0MB","aipc":5.6380952380952385,"threads":1,"cycles":3780,"sim_cycles":3780,"traffic":33203,"scale_iters":24,"scale_fp":1024,"k":4}` + "\n"
	lines := clean + faultedLine + "\n"
	want := []Cell{
		{Key: "11a97cf7a3cddd724489c70f8404d7a1", App: "conv-os-4x4x2", Arch: "C1 D4 P8 V128 M128 L1:8KB L2:0MB",
			AIPC: 5.6380952380952385, Threads: 1, Cycles: 3780, SimCycles: 3780, Traffic: 33203,
			ScaleIters: 24, ScaleFootprint: 1024, K: 4},
	}

	var got []Cell
	if n, err := walkJournal(strings.NewReader(lines), func(c Cell) { got = append(got, c) }); err != nil || n != len(want) {
		t.Fatalf("walkJournal = %d, %v; want %d cells", n, err, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d replays as %+v, want %+v", i+1, got[i], want[i])
		}
	}

	path := filepath.Join(t.TempDir(), "out.jsonl")
	j, _, err := openJournal(path, false, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range want {
		if err := j.append(cellRecord(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != clean {
		t.Errorf("journal bytes drifted:\n%s\nwant:\n%s", written, clean)
	}
}

// TestJournalReplaysFaultedLines: a journal holding faultedLine resumes
// without error. The line is skipped, not loaded under its key, which no
// request can produce, and the faultless cells journaled beside it are
// still hits.
func TestJournalReplaysFaultedLines(t *testing.T) {
	points, apps := testPoints(t, 1), testApps(t, "gzip")
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	first, err := New(WithJournal(path, false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(faultedLine + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(WithJournal(path, true))
	if err != nil {
		t.Fatalf("resume from a journal with a faulted line: %v", err)
	}
	defer resumed.Close()
	if n := resumed.Cache().Stats().Cells; n != 1 {
		t.Errorf("resumed cache holds %d cells, want 1", n)
	}
	got, err := resumed.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	if p := resumed.LastProgress(); p.Simulated != 0 || p.CacheHits != 1 {
		t.Errorf("resumed sweep simulated %d, hit %d; want 0 and 1", p.Simulated, p.CacheHits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed results differ:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJournalTornTrailingRecord: a crash mid-append leaves a truncated
// final line. Resume must load every complete record and skip only the
// torn one — losing the cell in flight, never the journal.
func TestJournalTornTrailingRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	good1 := `{"kind":"cell","key":"aaaa","app":"fft","aipc":1.5,"threads":1,"cycles":100}`
	good2 := `{"kind":"cell","key":"bbbb","app":"lu","aipc":2.5,"threads":1,"cycles":200}`
	writeJournalLines(t, path, good1, good2, `{"kind":"cell","key":"cc`)

	cache := NewCache()
	n, err := ReplayJournal(path, cache)
	if err != nil {
		t.Fatalf("torn trailing record should not fail resume: %v", err)
	}
	if n != 2 {
		t.Errorf("replayed %d records, want 2", n)
	}
	if _, ok := cache.Cell("aaaa"); !ok {
		t.Error("first record lost")
	}
	if cell, ok := cache.Cell("bbbb"); !ok || cell.AIPC != 2.5 {
		t.Errorf("second record lost or mangled: %+v", cell)
	}
}

// TestJournalMidFileCorruption: a bad line that is NOT the trailing one
// is real corruption and must refuse to resume — silently skipping
// interior records would serve a partial result space as if complete.
func TestJournalMidFileCorruption(t *testing.T) {
	good := `{"kind":"cell","key":"aaaa","app":"fft"}`
	for name, lines := range map[string][]string{
		"garbage":      {good, `{"kind":"cell","key":"bb`, good},
		"unknown kind": {good, `{"kind":"mystery","key":"bbbb"}`, good},
		// A cell without a key would be cached under "", which every
		// reader of a Cell takes to mean "no cell".
		"keyless cell": {good, `{"kind":"cell","app":"fft","aipc":1.5}`, good},
	} {
		path := filepath.Join(t.TempDir(), "corrupt.jsonl")
		writeJournalLines(t, path, lines...)
		if _, err := ReplayJournal(path, NewCache()); err == nil {
			t.Errorf("%s mid-file: resume succeeded, want error", name)
		}
	}
}

// TestJournalKeylessTail: a keyless cell as the last line is skipped with
// the torn-tail warning like any other bad last line, and never cached.
func TestJournalKeylessTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyless.jsonl")
	writeJournalLines(t, path, `{"kind":"cell","key":"aaaa","app":"fft"}`, `{"kind":"cell"}`)
	cache := NewCache()
	n, err := ReplayJournal(path, cache)
	if err != nil || n != 1 || cache.Stats().Cells != 1 {
		t.Fatalf("replayed %d records into %d cells, error %v; want the keyed cell alone", n, cache.Stats().Cells, err)
	}
	if _, ok := cache.Cell(""); ok {
		t.Error("a cell is cached under the empty key")
	}
}

// FuzzWalkJournal: a journal is bytes from outside — a file a crash tore
// or another tool wrote. No input may panic the walk, no delivered cell may
// lack a key, and replaying the same bytes into a fresh cache twice gives
// the same cells.
func FuzzWalkJournal(f *testing.F) {
	cell := `{"kind":"cell","key":"aaaa","app":"fft","aipc":1.5,"threads":1,"cycles":100}`
	f.Add([]byte(cell + "\n"))
	f.Add([]byte(cell + "\n" + `{"kind":"tuning","key":"6055","app":"ammp","k_opt":2,"u_opt":64,"ratio":0.03125}` + "\n"))
	f.Add([]byte(cell + "\n" + `{"kind":"cell","key":"bb`))
	f.Add([]byte(`{"kind":"cell"}` + "\n" + cell + "\n"))
	f.Add([]byte(faultedLine + "\n" + cell + "\n"))
	prev := log.Writer()
	log.SetOutput(io.Discard) // torn-tail warnings, one per input
	f.Cleanup(func() { log.SetOutput(prev) })
	f.Fuzz(func(t *testing.T, data []byte) {
		delivered, _ := walkJournal(bytes.NewReader(data), func(c Cell) {
			if c.Key == "" {
				t.Error("delivered a cell without a key")
			}
		})
		replay := func() []Cell {
			cache := NewCache()
			walkJournal(bytes.NewReader(data), cache.PutCell)
			return cache.Cells()
		}
		first, again := replay(), replay()
		if len(first) > delivered {
			t.Errorf("replay cached %d of %d delivered cells", len(first), delivered)
		}
		if !slices.Equal(first, again) {
			t.Errorf("two replays of the same bytes differ:\n%+v\n%+v", first, again)
		}
	})
}

// TestJournalSkipsOldTuningRecords: journals written before tunings ran
// as cells hold "kind":"tuning" lines. Replay takes the cells, skips the
// tunings without counting them or failing, and still treats a torn last
// line as the crash signature it is.
func TestJournalSkipsOldTuningRecords(t *testing.T) {
	oldPath := filepath.Join(t.TempDir(), "old.jsonl")
	cell1 := `{"kind":"cell","key":"aaaa","app":"fft","aipc":1.5,"threads":1,"cycles":100}`
	tuning := `{"kind":"tuning","key":"605577779745de2334da1bdea1d1cbfd","app":"ammp","k_opt":2,"u_opt":64,"ratio":0.03125}`
	cell2 := `{"kind":"cell","key":"bbbb","app":"lu","aipc":2.5,"threads":1,"cycles":200}`
	writeJournalLines(t, oldPath, cell1, tuning, cell2, `{"kind":"tuning","key":"1a79`)

	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prev)

	cache := NewCache()
	n, err := ReplayJournal(oldPath, cache)
	if err != nil {
		t.Fatalf("replaying a journal with old tuning records: %v", err)
	}
	if n != 2 || cache.Stats().Cells != 2 {
		t.Errorf("replayed %d records into %d cells, want the 2 cells only", n, cache.Stats().Cells)
	}
	if !strings.Contains(logged.String(), "torn trailing journal record") {
		t.Errorf("no warning for the torn tail; log output: %q", logged.String())
	}
}

// TestJournalMissingFile: resuming from a journal that does not exist yet
// is an empty journal, not an error.
func TestJournalMissingFile(t *testing.T) {
	n, err := ReplayJournal(filepath.Join(t.TempDir(), "absent.jsonl"), NewCache())
	if err != nil || n != 0 {
		t.Fatalf("missing journal: n=%d err=%v, want 0 records and no error", n, err)
	}
}

// TestJournalConcurrentAppend: many goroutines committing cells must
// interleave into a journal whose every line is intact — the append lock
// is the only thing between a sweep's workers and a corrupt result space.
func TestJournalConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "concurrent.jsonl")
	exp, err := New(WithJournal(path, false))
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := exp.commit(fakeCell(i), nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	cache := NewCache()
	loaded, err := ReplayJournal(path, cache)
	if err != nil {
		t.Fatalf("replay after concurrent appends: %v", err)
	}
	if loaded != n {
		t.Errorf("replayed %d records, want %d", loaded, n)
	}
	for i := 0; i < n; i++ {
		want := fakeCell(i)
		if got, ok := cache.Cell(want.Key); !ok || got != want {
			t.Errorf("cell %d: got %+v ok=%v, want %+v", i, got, ok, want)
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
