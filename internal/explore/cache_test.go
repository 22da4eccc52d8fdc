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

// checkBases checks that the cache keeps a base only beside a cached cell
// and indexes each one once under its twin key, and returns how many it
// keeps.
func checkBases(t *testing.T, c *Cache) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	cellOf := make(map[*base]string, len(c.bases))
	for key, b := range c.bases {
		if _, ok := c.cells[key]; !ok {
			t.Errorf("base of %s outlived its cell", key)
		}
		cellOf[b] = key
	}
	indexed := 0
	for k, list := range c.twins {
		for _, b := range list {
			if key, ok := cellOf[b]; !ok || b.twin != k {
				t.Errorf("base of %q indexed under another twin key or not by its cell", key)
			}
		}
		indexed += len(list)
	}
	if indexed != len(c.bases) {
		t.Errorf("%d bases indexed, %d stored", indexed, len(c.bases))
	}
	return len(c.bases)
}

// TestCacheLimitEvictsBases: under WithCacheLimit the runs kept as bases
// go with their cells, so the limit bounds them too, and a twin whose base
// went is simulated. djpeg at tiny scale runs eviction-free on an 8 KB
// L1, so its 16 and 32 KB twins would otherwise be copied.
func TestCacheLimitEvictsBases(t *testing.T) {
	e, err := New(WithCacheLimit(2), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	apps := testApps(t, "djpeg", "gzip")
	djpeg := func(l1 int) (Progress, int) {
		t.Helper()
		a := sim.BaselineArch()
		a.L1KB = l1
		_, p, err := e.RunOne(ctx, sim.Baseline(a), apps[0], workload.Tiny, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		return p, checkBases(t, e.Cache())
	}
	if p, n := djpeg(8); p.Sims != 1 || n != 1 {
		t.Fatalf("8 KB L1: %+v, %d bases; want one simulation kept as a base", p, n)
	}
	if p, n := djpeg(32); p.Reused != 1 || n != 1 {
		t.Fatalf("32 KB L1: %+v, %d bases; want the cell copied and no base added", p, n)
	}
	// A third cell evicts the least recently used, the 8 KB one, and its
	// base with it.
	if _, _, err := e.RunOne(ctx, sim.Baseline(sim.BaselineArch()), apps[1], workload.Tiny, []int{1}); err != nil {
		t.Fatal(err)
	}
	if n := checkBases(t, e.Cache()); n != 1 {
		t.Fatalf("after an eviction: %d bases, want the gzip cell's alone", n)
	}
	if p, n := djpeg(16); p.Reused != 0 || p.Sims != 1 || n != 2 {
		t.Errorf("16 KB L1 after its base went: %+v, %d bases; want it simulated and kept", p, n)
	}
	e.Cache().SetLimit(1)
	if n := checkBases(t, e.Cache()); n != 1 {
		t.Errorf("after SetLimit(1): %d bases, want 1", n)
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
	first, p, err := e.RunOne(context.Background(), cfg, apps[0], workload.Tiny, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheHits != 0 || p.Simulated != 1 || p.Sims != 1 {
		t.Errorf("first RunOne: %+v, want one cell simulated", p)
	}
	if first.AIPC <= 0 || first.Err != "" {
		t.Fatalf("first run cell: %+v", first)
	}
	second, p, err := e.RunOne(context.Background(), cfg, apps[0], workload.Tiny, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheHits != 1 || second != first {
		t.Errorf("second RunOne %+v cell=%+v, want cache hit identical to %+v", p, second, first)
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
	warm, p, err := resumed.RunOne(context.Background(), cfg, apps[0], workload.Tiny, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheHits != 1 || warm != first {
		t.Errorf("warm-restart RunOne %+v cell=%+v, want journal hit identical to %+v", p, warm, first)
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
