package explore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"

	"wavescalar/internal/design"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// CellKey returns the content-addressed cache key for one sweep cell: a
// hex SHA-256 digest (truncated to 128 bits) over the full simulator
// configuration (architecture plus every microarchitectural knob), the
// workload name, the scale, and the thread counts tried. Everything that
// can change a deterministic simulation's outcome is in the key; the
// trace recorder is excluded because observability never changes results.
// The daemon uses the same key for request deduplication, so a cell
// simulated by a CLI sweep and journaled is a cache hit for an identical
// HTTP request after a warm restart.
//
// The pre-image is the text fmt.Sprintf("cell|%+v|%s|%+v|%v", cfg, app, sc,
// threadCounts) printed for the cleaned configuration when keys were
// fixed, written by hand because a cache hit spent a third of its time in
// fmt's reflection. The tests in cellkey_test.go hold it to that text on a
// frozen copy of the configuration, byte for byte, so every key and
// journal record of any earlier revision is still a hit.
func CellKey(cfg sim.Config, app string, sc workload.Scale, threadCounts []int) string {
	var buf [512]byte // a clean pre-image is about 400 bytes
	sum := sha256.Sum256(appendCellPreimage(buf[:0], &cfg, app, sc, threadCounts))
	var key [32]byte
	hex.Encode(key[:], sum[:16])
	return string(key[:])
}

// appendCellPreimage appends what CellKey hashes. Trace never changes
// results, so it is written as its zero value whatever cfg holds.
// "Sched:0" and "Fault:<nil>" are the scheduler choice and the absent
// fault script the configuration carried when keys were fixed, kept as
// text so those keys stay hits.
func appendCellPreimage(b []byte, cfg *sim.Config, app string, sc workload.Scale, threadCounts []int) []byte {
	field := func(name string, v int) {
		b = append(b, name...)
		b = strconv.AppendInt(b, int64(v), 10)
	}
	a := &cfg.Arch
	field("cell|{Arch:C", a.Clusters) // area.Params.String()
	field(" D", a.Domains)
	field(" P", a.PEs)
	field(" V", a.Virt)
	field(" M", a.Match)
	field(" L1:", a.L1KB)
	field("KB L2:", a.L2MB)
	field("MB K:", cfg.K)
	field(" MatchAssoc:", cfg.MatchAssoc)
	field(" MatchBanks:", cfg.MatchBanks)
	field(" OverflowPenalty:", cfg.OverflowPenalty)
	field(" InstMissPenalty:", cfg.InstMissPenalty)
	field(" Placement:", int(cfg.Placement))
	field(" PodSize:", cfg.PodSize)
	field(" OutQCap:", cfg.OutQCap)
	b = append(b, " SpecFire:"...)
	b = strconv.AppendBool(b, cfg.SpecFire)
	field(" InputWindow:", cfg.InputWindow)
	field(" SBContexts:", cfg.SBContexts)
	field(" PSQs:", cfg.PSQs)
	field(" PSQEntries:", cfg.PSQEntries)
	field(" SBPipeLat:", cfg.SBPipeLat)
	field(" L1Lat:", cfg.L1Lat)
	field(" L1Ports:", cfg.L1Ports)
	field(" L2Lat:", cfg.L2Lat)
	field(" MemLat:", cfg.MemLat)
	field(" NocBW:", cfg.NocBW)
	field(" NocQCap:", cfg.NocQCap)
	field(" NetPEBW:", cfg.NetPEBW)
	b = append(b, " Sched:0 MaxCycles:"...)
	b = strconv.AppendUint(b, cfg.MaxCycles, 10)
	b = append(b, " StallLimit:"...)
	b = strconv.AppendUint(b, cfg.StallLimit, 10)
	b = append(b, " Trace:<nil> Fault:<nil>}|"...)
	b = append(b, app...)
	field("|{Iters:", sc.Iters)
	field(" Footprint:", sc.Footprint)
	b = append(b, "}|["...)
	for i, n := range threadCounts {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

// Cell is one completed (design point, workload) measurement — the unit
// of caching, journaling and resume. Deterministic failures (deadlocks,
// cycle-limit aborts) are cells too: they are cached by their error text
// so a resumed sweep does not re-simulate a known-bad point.
type Cell struct {
	Key     string  `json:"key"`
	App     string  `json:"app"`
	Arch    string  `json:"arch,omitempty"` // human-readable design point, for journal readers
	AIPC    float64 `json:"aipc,omitempty"`
	Threads int     `json:"threads,omitempty"`
	// Cycles is the winning run's length; SimCycles totals every thread
	// count tried (progress accounting). Traffic is the winning run's
	// total NoC message count.
	Cycles    uint64 `json:"cycles,omitempty"`
	SimCycles uint64 `json:"sim_cycles,omitempty"`
	Traffic   uint64 `json:"traffic,omitempty"`
	// Provenance: the cell's scale and the k-loop bound of its
	// configuration, so a journal line describes itself to a reader (jq,
	// a plotting script) that cannot invert the Key. Zero values on
	// records journaled before these fields existed. None of these
	// participate in the content-addressed Key (the key already covers
	// the full config and scale).
	ScaleIters     int    `json:"scale_iters,omitempty"`
	ScaleFootprint int    `json:"scale_fp,omitempty"`
	K              int    `json:"k,omitempty"`
	Err            string `json:"err,omitempty"` // non-empty for a deterministic failure
}

// CacheStats is a snapshot of a cache's contents and lookup history,
// exported so long-running services can report hit ratios and eviction
// pressure.
type CacheStats struct {
	// Cells counts the stored entries; Limit is the LRU cap (0 = unlimited).
	Cells, Limit int
	// Hits and Misses count lookups; Evictions counts cells dropped to
	// honour the limit.
	Hits, Misses, Evictions uint64
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Cache is a concurrency-safe, content-addressed store of completed
// simulation results: once a (design, workload, scale, threads,
// microarch) cell is in it, every later sweep, tuning or run that asks for
// the cell gets it without simulating — in this process, or after a
// restart with a journal behind it. A lookup reserves nothing, so callers
// that miss the same cell at the same time each simulate it.
//
// Beside a cell the explorer simulated, the cache keeps the cell's
// per-thread-count runs as a base its twins may copy from (see the package
// doc). Bases live in memory only: they are never journaled, Cells and
// Stats do not show them, and one goes when its cell is evicted (a sweep
// that holds it keeps it to the sweep's end).
//
// By default the cache grows without bound (a full Pareto sweep is a few
// hundred thousand cells at most, and a CLI process is short-lived). A
// long-running daemon can cap it with SetLimit, which turns the store
// into an LRU: lookups refresh recency, and inserts beyond the limit evict
// the least recently used cell.
type Cache struct {
	mu    sync.Mutex
	limit int
	cells map[string]*list.Element // elements hold Cell values
	order *list.List               // front = most recently used

	// bases holds the bases by cell key, twins the same bases by twin
	// key, oldest first.
	bases map[string]*base
	twins map[twinKey][]*base

	hits, misses, evictions uint64
}

// base is what a cell the explorer simulated leaves for its twins: the
// cell's configuration and its completed per-thread-count runs.
type base struct {
	twin twinKey
	cfg  sim.Config
	runs []design.ThreadRun
}

// twinKey groups the cells whose runs may be copied between them: the
// workload, the scale, and the configuration with V, M, L1, L2 and the
// trace recorder cleared (a trace never changes results).
type twinKey struct {
	app string
	sc  workload.Scale
	cfg sim.Config
}

func twinKeyOf(cfg sim.Config, app string, sc workload.Scale) twinKey {
	cfg.Arch.Virt, cfg.Arch.Match, cfg.Arch.L1KB, cfg.Arch.L2MB = 0, 0, 0, 0
	cfg.Trace = nil
	return twinKey{app, sc, cfg}
}

// runOn returns the base's run at n threads if it is exact on cfg, a
// configuration of the base's twin key without a trace recorder:
// cache.Footprint.ExactOn passes the run from the base's caches to cfg's,
// and V and M agree or the placement's binding at n (bind) is
// sim.Binding.Inert on both configurations.
func (b *base) runOn(cfg sim.Config, n int, bind func(n int) sim.Binding) (design.ThreadRun, bool) {
	sameVM := b.cfg.Arch.Virt == cfg.Arch.Virt && b.cfg.Arch.Match == cfg.Arch.Match
	for _, r := range b.runs {
		if r.Threads == n && r.Cache.ExactOn(b.cfg.CacheConfig(), cfg.CacheConfig()) &&
			(sameVM || bind(n).Inert(b.cfg) && bind(n).Inert(cfg)) {
			return r, true
		}
	}
	return design.ThreadRun{}, false
}

// NewCache returns an empty, unbounded in-memory cache.
func NewCache() *Cache {
	return &Cache{cells: make(map[string]*list.Element), order: list.New(),
		bases: make(map[string]*base), twins: make(map[twinKey][]*base)}
}

// SetLimit caps the cell store at n entries, evicting least-recently-used
// cells immediately if it is already over. n <= 0 removes the cap.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictOver()
}

// evictOver drops LRU cells, and their bases, until the store is within
// the limit. Callers hold c.mu.
func (c *Cache) evictOver() {
	if c.limit <= 0 {
		return
	}
	for len(c.cells) > c.limit {
		oldest := c.order.Back()
		if oldest == nil {
			return
		}
		c.order.Remove(oldest)
		key := oldest.Value.(Cell).Key
		delete(c.cells, key)
		c.dropBase(key)
		c.evictions++
	}
}

// dropBase forgets the base stored beside a cell, if any. A twin list is
// never written below the length it had when twinBases returned it, so
// the list without the base is a new one. Callers hold c.mu.
func (c *Cache) dropBase(key string) {
	b, ok := c.bases[key]
	if !ok {
		return
	}
	delete(c.bases, key)
	old := c.twins[b.twin]
	if len(old) == 1 {
		delete(c.twins, b.twin)
		return
	}
	kept := make([]*base, 0, len(old)-1)
	for _, o := range old {
		if o != b {
			kept = append(kept, o)
		}
	}
	c.twins[b.twin] = kept
}

// Cell looks up a completed cell by key, refreshing its LRU recency.
func (c *Cache) Cell(key string) (Cell, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.cells[key]
	if !ok {
		c.misses++
		return Cell{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(Cell), true
}

// PutCell stores a completed cell, evicting the least recently used cell
// if a limit is set and exceeded.
func (c *Cache) PutCell(cell Cell) { c.put(cell, nil) }

// put is PutCell that also stores b, when not nil, as the cell's base (in
// place of an earlier one).
func (c *Cache) put(cell Cell, b *base) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b != nil {
		c.dropBase(cell.Key)
		c.bases[cell.Key] = b
		c.twins[b.twin] = append(c.twins[b.twin], b)
	}
	if el, ok := c.cells[cell.Key]; ok {
		el.Value = cell
		c.order.MoveToFront(el)
		return
	}
	c.cells[cell.Key] = c.order.PushFront(cell)
	c.evictOver()
}

// twinBases returns the bases stored under twin key k, oldest first. The
// caller must not write the slice, nor append to it without first cutting
// its capacity to its length; the cache never writes it below its length
// again.
func (c *Cache) twinBases(k twinKey) []*base {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.twins[k]
}

// Cells returns a snapshot of every cached cell, sorted by key, so the
// same cell population gives the same snapshot whatever its insertion
// and LRU history. Recency is not touched.
func (c *Cache) Cells() []Cell {
	c.mu.Lock()
	out := make([]Cell, 0, len(c.cells))
	for _, el := range c.cells {
		out = append(out, el.Value.(Cell))
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Stats returns a snapshot of the cache's size and lookup counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Cells: len(c.cells), Limit: c.limit,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
