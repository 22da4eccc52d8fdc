package explore

import (
	"context"
	"fmt"
	"testing"

	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

func testCell(i int) Cell {
	return Cell{Key: fmt.Sprintf("key-%03d", i), App: "fft", AIPC: float64(i)}
}

func TestCacheLimitEvictsLRU(t *testing.T) {
	c := NewCache()
	c.SetLimit(3)
	for i := 0; i < 3; i++ {
		c.PutCell(testCell(i))
	}
	// Touch key-000 so key-001 becomes the least recently used.
	if _, ok := c.Cell("key-000"); !ok {
		t.Fatal("key-000 missing before eviction")
	}
	c.PutCell(testCell(3))
	if _, ok := c.Cell("key-001"); ok {
		t.Error("key-001 survived eviction despite being LRU")
	}
	for _, k := range []string{"key-000", "key-002", "key-003"} {
		if _, ok := c.Cell(k); !ok {
			t.Errorf("%s evicted, want it retained", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Cells != 3 {
		t.Errorf("cells = %d, want 3", st.Cells)
	}
}

func TestCacheSetLimitShrinksExisting(t *testing.T) {
	c := NewCache()
	for i := 0; i < 10; i++ {
		c.PutCell(testCell(i))
	}
	c.SetLimit(4)
	st := c.Stats()
	if st.Cells != 4 || st.Evictions != 6 {
		t.Errorf("after SetLimit(4): cells=%d evictions=%d, want 4 and 6", st.Cells, st.Evictions)
	}
	// The most recently inserted cells survive.
	for i := 6; i < 10; i++ {
		if _, ok := c.Cell(fmt.Sprintf("key-%03d", i)); !ok {
			t.Errorf("key-%03d evicted, want the newest four retained", i)
		}
	}
}

func TestCacheStatsCountsLookups(t *testing.T) {
	c := NewCache()
	c.PutCell(testCell(1))
	c.Cell("key-001")
	c.Cell("absent")
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1 and 1", st.Hits, st.Misses)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", got)
	}
	if (CacheStats{}).HitRatio() != 0 {
		t.Error("empty stats hit ratio should be 0")
	}
}

func TestCachePutCellUpdatesInPlace(t *testing.T) {
	c := NewCache()
	c.SetLimit(2)
	c.PutCell(testCell(1))
	c.PutCell(testCell(2))
	updated := testCell(1)
	updated.AIPC = 42
	c.PutCell(updated)
	if st := c.Stats(); st.Cells != 2 || st.Evictions != 0 {
		t.Fatalf("re-put evicted: cells=%d evictions=%d", st.Cells, st.Evictions)
	}
	if cell, _ := c.Cell("key-001"); cell.AIPC != 42 {
		t.Errorf("AIPC = %v after update, want 42", cell.AIPC)
	}
}

func TestWithCacheLimitOption(t *testing.T) {
	if _, err := New(WithCacheLimit(0)); err == nil {
		t.Error("WithCacheLimit(0) accepted, want ErrBadOptions")
	}
	e, err := New(WithCacheLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.Cache().PutCell(testCell(i))
	}
	if st := e.Cache().Stats(); st.Cells != 2 || st.Limit != 2 {
		t.Errorf("cache cells=%d limit=%d, want 2 and 2", st.Cells, st.Limit)
	}
}

// TestRunOneCachesAndJournals proves the daemon's unit of work: the first
// RunOne simulates, a second identical call is a pure cache hit with an
// identical cell, and the journal replays it into a fresh cache.
func TestRunOneCachesAndJournals(t *testing.T) {
	path := t.TempDir() + "/runs.jsonl"
	e, err := New(WithJournal(path, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Baseline(sim.BaselineArch())
	apps := testApps(t, "fft")
	first, cached, err := e.RunOne(context.Background(), cfg, apps[0], workload.Tiny, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first RunOne reported cached")
	}
	if first.AIPC <= 0 || first.Err != "" {
		t.Fatalf("first run cell: %+v", first)
	}
	second, cached, err := e.RunOne(context.Background(), cfg, apps[0], workload.Tiny, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || second != first {
		t.Errorf("second RunOne cached=%v cell=%+v, want cache hit identical to %+v", cached, second, first)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(WithJournal(path, true))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Resumed() != 1 {
		t.Fatalf("resumed %d records, want 1", resumed.Resumed())
	}
	warm, cached, err := resumed.RunOne(context.Background(), cfg, apps[0], workload.Tiny, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || warm != first {
		t.Errorf("warm-restart RunOne cached=%v cell=%+v, want journal hit identical to %+v", cached, warm, first)
	}
}

func TestRunOneRejectsBadArguments(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	apps := testApps(t, "fft")
	if _, _, err := e.RunOne(context.Background(), sim.Baseline(sim.BaselineArch()), apps[0], workload.Scale{}, []int{1}); err == nil {
		t.Error("zero scale accepted")
	}
	if _, _, err := e.RunOne(context.Background(), sim.Baseline(sim.BaselineArch()), apps[0], workload.Tiny, nil); err == nil {
		t.Error("empty thread counts accepted")
	}
}

// TestSweepWithOverrides checks that per-call scale/thread overrides key
// and simulate independently of the explorer's defaults.
func TestSweepWithOverrides(t *testing.T) {
	e, err := New(WithParallelism(2)) // defaults: Tiny, {1}
	if err != nil {
		t.Fatal(err)
	}
	points, apps := testPoints(t, 1), testApps(t, "fft")
	var oneDone, twoDone int
	if _, err := e.SweepWith(context.Background(), points, apps, SweepSpec{
		Progress: func(p Progress) { oneDone = p.Done },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SweepWith(context.Background(), points, apps, SweepSpec{
		ThreadCounts: []int{2},
		Progress:     func(p Progress) { twoDone = p.Done },
	}); err != nil {
		t.Fatal(err)
	}
	if oneDone != 1 || twoDone != 1 {
		t.Errorf("progress done: first=%d second=%d, want 1 and 1", oneDone, twoDone)
	}
	// Different thread counts are distinct cells: both simulated.
	if st := e.Cache().Stats(); st.Cells != 2 {
		t.Errorf("cache cells = %d, want 2 (distinct thread counts key separately)", st.Cells)
	}
}
