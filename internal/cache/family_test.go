package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wavescalar/internal/noc"
)

// familyEvent is one callback a System made: a completion (done) or a
// message injection (send). A send's body is copied at the callback, since
// the message record is recycled once delivered.
type familyEvent struct {
	cycle    uint64
	done     bool
	cluster  int // done: the issuing cluster; send: the source
	dst      int
	reqID    uint64
	payload  body
	toMemory bool
}

// familyOp is one access of a drawn trace, issued gap cycles after the
// previous one.
type familyOp struct {
	gap     uint64
	cluster int
	line    uint64
	write   bool
}

// familyResult is what a familyRun saw: every callback in order, the
// final Stats, and the run's Footprint.
type familyResult struct {
	events    []familyEvent
	stats     Stats
	footprint Footprint
}

// familyConfig is a hierarchy with l1KB of L1 per cluster, counted at
// 128-byte lines, and an L2 of l2Lines lines (0: no L2). Its lines are
// 1 MB, so that L2MB counts lines and a short trace can fill the L2; the
// hierarchy reads a line only as its address, so the L1 holds the 8*l1KB
// lines it holds at 128 bytes.
func familyConfig(clusters, l1KB, l2Lines int) Config {
	return Config{Clusters: clusters, L1KB: l1KB << 13, LineBytes: 1 << 20, L1Assoc: 4,
		L1Lat: 3, L1Ports: 2, L2MB: l2Lines, L2Lat: 20, MemLat: 200}
}

// familyRun plays ops on the hierarchy cfg over an instant one-hop
// network.
func familyRun(cfg Config, ops []familyOp) familyResult {
	var events []familyEvent
	var inbox []*noc.Message
	sys := New(cfg,
		func(cycle uint64, cluster int, reqID uint64) {
			events = append(events, familyEvent{cycle: cycle, done: true, cluster: cluster, reqID: reqID})
		},
		func(cycle uint64, m *noc.Message) bool {
			events = append(events, familyEvent{cycle: cycle, cluster: m.Src, dst: m.Dst, payload: m.Payload.(*msg).body, toMemory: m.ToMem})
			inbox = append(inbox, m)
			return true
		})

	next := uint64(0)
	i := 0
	for c := uint64(0); c < 1_000_000; c++ {
		pending := inbox
		inbox = nil
		for _, m := range pending {
			sys.Deliver(c, m.Dst, m)
		}
		for ; i < len(ops) && next+ops[i].gap <= c; i++ {
			next += ops[i].gap
			op := ops[i]
			sys.Access(c, op.cluster, uint64(i), op.line*uint64(cfg.LineBytes)+op.line%128, op.write)
		}
		sys.Tick(c)
		if i == len(ops) && len(inbox) == 0 && sys.Outstanding() == 0 {
			break
		}
	}
	return familyResult{events, sys.Stats(), sys.Footprint()}
}

// decodeFamily turns fuzz bytes into a machine family and a trace: the
// base hierarchy (clusters, L1 size, L2 lines) and its twin. The twin's L1
// is 1, 2 or 4 times the base's, but for data[1] >= 128 on a 2 KB base it
// is 1, 3 or 5 KB, not a multiple. By k = data[3]/40, a base with an L2
// draws a twin whose L2 is at least as large (k < 2), at most as large
// down to one line (k < 5) or missing; a base without one draws a twin
// without one (k < 3) or with one of 1 to 40 lines. For data[0] >= 216 the
// twin differs in one field outside the cache sizes too: the L1's
// associativity, latency or ports, the L2 latency or the memory latency.
func decodeFamily(data []byte) (base, twin Config, ops []familyOp) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	clusters := []int{1, 2, 4}[int(data[0])%3]
	l1 := 1 + int(data[1])%2
	twinL1 := l1 << (int(data[1]>>1) % 3)
	if data[1] >= 128 && l1 == 2 {
		twinL1 = 1 + 2*(int(data[1]>>1)%3)
	}
	var l2, twinL2 int
	if data[2]%4 != 0 {
		l2 = 4 + int(data[2])%29
	}
	switch k := int(data[3]) / 40; {
	case l2 == 0:
		if k >= 3 {
			twinL2 = 1 + int(data[2]>>2)%40
		}
	case k < 2:
		twinL2 = l2 + int(data[2]>>5)*4
	case k < 5:
		twinL2 = 1 + (int(data[2]>>5)*5+k)%l2
	}
	base, twin = familyConfig(clusters, l1, l2), familyConfig(clusters, twinL1, twinL2)
	if data[0] >= 216 {
		switch data[0] % 5 {
		case 0:
			twin.L1Assoc = 2
		case 1:
			twin.L1Lat++
		case 2:
			twin.L1Ports = 1
		case 3:
			twin.L2Lat += 5
		case 4:
			twin.MemLat -= 50
		}
	}
	lines := 1 + int(data[3])%40
	for b := data[4:]; len(b) >= 2; b = b[2:] {
		ops = append(ops, familyOp{
			gap:     uint64(b[0] >> 3),
			cluster: int(b[0]&3) % clusters,
			write:   b[0]&4 != 0,
			line:    uint64(int(b[1]) % lines),
		})
	}
	return
}

// describe names a familyConfig hierarchy by its cache sizes.
func describe(c Config) string {
	return fmt.Sprintf("L1 %d KB, L2 %d lines", c.L1KB>>13, c.L2MB)
}

// otherFields reports whether base and twin differ outside the cache
// sizes, and whether in a latency, which every access's timing shows.
func otherFields(base, twin Config) (differ, latency bool) {
	latency = base.L1Lat != twin.L1Lat || base.L2Lat != twin.L2Lat || base.MemLat != twin.MemLat
	base.L1KB, base.L2MB, twin.L1KB, twin.L2MB = 0, 0, 0, 0
	return base != twin, latency
}

// familySeeds draws the fuzz target's seed corpus: random traces over
// every header (cluster count, L1 sizes, L2 sizes, line range), and
// traces on four clusters that mostly read, where a line shared by two
// clusters is often requested by a third: a refetch without an eviction,
// which random traces rarely make.
func familySeeds() [][]byte {
	rng := rand.New(rand.NewSource(20061))
	seeds := make([][]byte, 500)
	for i := range seeds {
		sharing := i >= 300
		maxOps := 120
		if sharing {
			maxOps = 40
		}
		seeds[i] = make([]byte, 4+2*(1+rng.Intn(maxOps)))
		rng.Read(seeds[i])
		if !sharing {
			continue
		}
		seeds[i][0] = byte(3*rng.Intn(85) + 2)
		for j := 4; j < len(seeds[i]); j += 2 {
			if rng.Intn(8) != 0 {
				seeds[i][j] &^= 4
			}
		}
	}
	return seeds
}

// FuzzCacheFamily checks Footprint.ExactOn, the rule behind the
// explorer's cache-twin reuse, on a drawn trace, base and twin. Where
// ExactOn passes the base's footprint to the twin, whatever the footprint,
// the twin makes the identical sequence of done and send callbacks and
// ends with identical Stats and the base's footprint. Where it does not
// and the base did not evict, the reason is shown to matter where one run
// can show it: a twin with another latency makes other callbacks, a twin
// whose L2 holds fewer lines than the base's directory ended tracking
// evicts, and a twin across the L2 line from a base that refetched ends
// with other Stats. A twin that differs in another field or whose L1 is
// not a multiple of the base's may run alike on one trace, and so may a
// twin refused an evicting run; TestCacheFamilySeedsCertify counts the
// seeds where such a twin runs differently.
func FuzzCacheFamily(f *testing.F) {
	for _, b := range familySeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		baseCfg, twinCfg, ops := decodeFamily(data)
		base := familyRun(baseCfg, ops)
		fp := base.footprint
		exact := fp.ExactOn(baseCfg, twinCfg)
		if !exact && fp.Evictions != 0 {
			return
		}
		twin := familyRun(twinCfg, ops)
		differ, latency := otherFields(baseCfg, twinCfg)
		l2, twinL2 := baseCfg.L2MB, twinCfg.L2MB
		switch {
		case exact:
			if twin.footprint != fp {
				t.Errorf("twin (%s) left footprint %+v; its base (%s) %+v",
					describe(twinCfg), twin.footprint, describe(baseCfg), fp)
			}
			if base.stats != twin.stats {
				t.Fatalf("stats differ: base (%s) %+v, twin (%s) %+v",
					describe(baseCfg), base.stats, describe(twinCfg), twin.stats)
			}
			if len(base.events) != len(twin.events) {
				t.Fatalf("base made %d callbacks, twin %d", len(base.events), len(twin.events))
			}
			for i := range base.events {
				if !reflect.DeepEqual(base.events[i], twin.events[i]) {
					t.Fatalf("callback %d: base %+v, twin %+v", i, base.events[i], twin.events[i])
				}
			}
		case differ:
			if latency && len(ops) > 0 && reflect.DeepEqual(base.events, twin.events) {
				t.Errorf("twin with another latency (%+v) made its base's callbacks (%+v)", twinCfg, baseCfg)
			}
		case twinCfg.L1KB%baseCfg.L1KB != 0:
		case twinL2 > 0 && fp.Lines > twinL2:
			if twin.footprint.Evictions == 0 {
				t.Errorf("twin (%s) did not evict, yet its base's directory ended tracking %d lines",
					describe(twinCfg), fp.Lines)
			}
		case (l2 == 0) != (twinL2 == 0) && fp.Refetches != 0:
			if twin.stats == base.stats {
				t.Errorf("base (%s) refetched %d times, yet its twin across the L2 line (%s) ended with its Stats, %+v",
					describe(baseCfg), fp.Refetches, describe(twinCfg), base.stats)
			}
		default:
			t.Errorf("ExactOn refused an eviction-free run (%+v) on base (%s) to twin (%s) for no reason",
				fp, describe(baseCfg), describe(twinCfg))
		}
	})
}

// TestCacheFamilySeedsCertify keeps the fuzz target's seeds from going
// vacuous: a good share of them must run eviction-free on multi-cluster
// machines with an L2, where coherence traffic is exercised, and without
// one; a good share must be passed by ExactOn to a twin whose L2 is
// smaller than the base's, and refused to another whose L2 is smaller
// than the footprint; a good share must be passed to a twin across the L2
// line each way, an L2 base's twin without one and a base's without one
// whose twin's L2 holds the footprint, and refused to others across the
// line because the base refetched; and a good share must be refused to a
// twin that differs in another field, or whose L1 is not a multiple of the
// base's, and that runs differently, so that a rule without either clause
// fails the fuzz target on its seeds. Of the seeds whose base evicted, a
// good share must be passed to an identical twin and to one that differs
// only in its L2, and a good share refused, and then run differently, for
// each clause of the evicting-run rule: an L1 of another size, a missing
// L2 on either side, an L2 that evicted.
func TestCacheFamilySeedsCertify(t *testing.T) {
	certified := map[bool]int{}
	smaller, short, down, up, refetched, fields, multiple := 0, 0, 0, 0, 0, 0, 0
	identical, l2Only, otherL1, noL2, l2Evicted := 0, 0, 0, 0, 0
	for _, b := range familySeeds() {
		baseCfg, twinCfg, ops := decodeFamily(b)
		base := familyRun(baseCfg, ops)
		fp := base.footprint
		if fp.Evictions != 0 {
			exact := fp.ExactOn(baseCfg, twinCfg)
			if differ, _ := otherFields(baseCfg, twinCfg); differ {
				continue
			}
			switch {
			case exact && baseCfg == twinCfg:
				identical++
			case exact:
				l2Only++
			case reflect.DeepEqual(base, familyRun(twinCfg, ops)):
			case baseCfg.L2MB == 0 || twinCfg.L2MB == 0:
				noL2++
			case twinCfg.L1KB != baseCfg.L1KB:
				otherL1++
			case fp.L2Evictions != 0:
				l2Evicted++
			}
			continue
		}
		l2, twinL2 := baseCfg.L2MB, twinCfg.L2MB
		if baseCfg.Clusters > 1 {
			certified[l2 > 0]++
		}
		exact := fp.ExactOn(baseCfg, twinCfg)
		differ, _ := otherFields(baseCfg, twinCfg)
		switch {
		case !exact && (differ || twinCfg.L1KB%baseCfg.L1KB != 0):
			twin := familyRun(twinCfg, ops)
			if twin.footprint.Evictions == 0 && reflect.DeepEqual(base, twin) {
				continue
			}
			if differ {
				fields++
			} else {
				multiple++
			}
		case !exact && twinL2 > 0 && fp.Lines > twinL2:
			short++
		case !exact && (l2 == 0) != (twinL2 == 0) && fp.Refetches != 0:
			refetched++
		case !exact:
		case l2 > 0 && twinL2 == 0:
			down++
		case l2 == 0 && twinL2 > 0:
			up++
		case twinL2 < l2:
			smaller++
		}
	}
	if certified[true] < 10 || certified[false] < 10 {
		t.Errorf("eviction-free multi-cluster seeds: %d with an L2, %d without; want >= 10 each",
			certified[true], certified[false])
	}
	if smaller < 10 || short < 5 {
		t.Errorf("eviction-free seeds with a smaller twin L2: %d passed, %d refused for its size; want >= 10 and >= 5",
			smaller, short)
	}
	if down < 10 || up < 10 || refetched < 10 {
		t.Errorf("eviction-free seeds with a twin across the L2 line: %d passed from an L2 to none, %d from none to one, %d refused for a refetch; want >= 10 each",
			down, up, refetched)
	}
	if fields < 10 || multiple < 5 {
		t.Errorf("eviction-free seeds refused to a twin that runs differently: %d for another field, %d for an L1 not a multiple; want >= 10 and >= 5",
			fields, multiple)
	}
	if identical < 5 || l2Only < 10 {
		t.Errorf("evicting seeds passed: %d to an identical twin, %d to one with another L2; want >= 5 and >= 10",
			identical, l2Only)
	}
	if otherL1 < 10 || noL2 < 10 || l2Evicted < 10 {
		t.Errorf("evicting seeds refused to a twin that runs differently: %d for another L1, %d for a missing L2, %d for an L2 eviction; want >= 10 each",
			otherL1, noL2, l2Evicted)
	}
}

// TestCacheFamilyL2BoundIsTight pins the L2 half of the rule at its edge.
// Two clusters read six lines between them, then one writes a line the
// other holds; the run neither evicts nor refetches and its directory
// ends tracking six lines, whether the base has a 24-line L2 or none.
// ExactOn passes it to a twin whose L2 holds exactly six lines, which runs
// identically, and refuses it to one whose L2 holds five, which evicts on
// the sixth install, invalidates an L1 copy, and ends with other Stats.
func TestCacheFamilyL2BoundIsTight(t *testing.T) {
	var ops []familyOp
	for ln := uint64(0); ln < 6; ln++ {
		ops = append(ops, familyOp{gap: 1, cluster: int(ln % 2), line: ln})
	}
	ops = append(ops, familyOp{gap: 1, cluster: 1, line: 0, write: true})
	const clusters, l1 = 2, 2
	for _, l2 := range []int{24, 0} {
		baseCfg := familyConfig(clusters, l1, l2)
		base := familyRun(baseCfg, ops)
		if want := (Footprint{Lines: 6}); base.footprint != want {
			t.Fatalf("base with a %d-line L2: footprint %+v, want %+v", l2, base.footprint, want)
		}
		fitCfg, shortCfg := familyConfig(clusters, l1, 6), familyConfig(clusters, l1, 5)
		if !base.footprint.ExactOn(baseCfg, fitCfg) || base.footprint.ExactOn(baseCfg, shortCfg) {
			t.Fatalf("base with a %d-line L2: ExactOn a 6-line twin %v, a 5-line one %v; want true and false",
				l2, base.footprint.ExactOn(baseCfg, fitCfg), base.footprint.ExactOn(baseCfg, shortCfg))
		}
		twin := familyRun(fitCfg, ops)
		if !reflect.DeepEqual(twin, base) {
			t.Errorf("base with a %d-line L2, twin with a 6-line L2: footprint %+v, stats %+v; want the base's run, %+v",
				l2, twin.footprint, twin.stats, base.stats)
		}
		short := familyRun(shortCfg, ops)
		if short.footprint.Evictions == 0 {
			t.Errorf("base with a %d-line L2: twin with a 5-line L2 did not evict", l2)
		}
		if short.stats == base.stats {
			t.Errorf("base with a %d-line L2: twin with a 5-line L2 ran like the base (%+v); the bound is not shown tight",
				l2, base.stats)
		}
	}
}

// TestCacheFamilyRefetchIsNotCertified pins why a refetch bars a copy
// across the L2 line. Two clusters read line 0, so both share it, and then
// one writes it: the write asks the directory for a line it has served
// before, with no remote owner. With an L2 that is an L2 hit; without one,
// a second memory fetch, and the write completes 200 cycles later. When
// the writer is one of the two sharers, its upgrade also fills a second
// copy of the line, which Footprint counts as an eviction; when a third
// cluster writes, the refetch is all there is to count, ExactOn refuses
// only the twin across the line, and a twin on the same side of the line
// (a larger L1, a smaller L2) still runs identically.
func TestCacheFamilyRefetchIsNotCertified(t *testing.T) {
	for _, tc := range []struct {
		name      string
		clusters  int
		writer    int
		evictions uint64
	}{
		{"upgrade", 2, 0, 1},
		{"third-cluster", 3, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := []familyOp{{gap: 1, cluster: 0}, {gap: 5, cluster: 1}, {gap: 5, cluster: tc.writer, write: true}}
			for _, l2 := range []int{4, 0} {
				baseCfg := familyConfig(tc.clusters, 1, l2)
				base := familyRun(baseCfg, ops)
				fp := base.footprint
				if fp.Evictions != tc.evictions || fp.Refetches != 1 {
					t.Errorf("base with a %d-line L2: %d evictions, %d refetches; want %d and 1",
						l2, fp.Evictions, fp.Refetches, tc.evictions)
				}
				acrossCfg, sameCfg := familyConfig(tc.clusters, 1, 4-l2), familyConfig(tc.clusters, 2, min(l2, 1))
				if fp.ExactOn(baseCfg, acrossCfg) {
					t.Errorf("base with a %d-line L2: ExactOn passed the run to a twin across the L2 line", l2)
				}
				across := familyRun(acrossCfg, ops)
				if reflect.DeepEqual(base.events, across.events) || base.stats == across.stats {
					t.Errorf("base with a %d-line L2 and its twin with %d lines ran alike (%+v); the refetch rule may be obsolete",
						l2, 4-l2, base.stats)
				}
				if tc.evictions != 0 {
					continue
				}
				if !fp.ExactOn(baseCfg, sameCfg) {
					t.Errorf("base with a %d-line L2: ExactOn refused the run to a twin on the same side (2 KB L1, %d-line L2)",
						l2, min(l2, 1))
				}
				same := familyRun(sameCfg, ops)
				if same.stats != base.stats || !reflect.DeepEqual(same.events, base.events) {
					t.Errorf("base with a %d-line L2 and its twin on the same side (2 KB L1, %d-line L2) ran differently: %+v vs %+v",
						l2, min(l2, 1), base.stats, same.stats)
				}
			}
		})
	}
}

// TestCacheFamilyUpgradeCopyIsNotCertified pins why a fill of a line the
// L1 already holds counts as an eviction. Cluster 1 holds line 0 shared
// and upgrades it for a write, which fills a second way with the same tag.
// With a 1 KB L1 the new copy takes the way line 2 left when cluster 0's
// write invalidated it, ahead of the stale shared copy; a 2 KB L1 maps
// line 2 to another set, so the copy lands behind it. The next write hits
// on one machine and misses on the other, although neither displaced a
// valid line, so ExactOn must refuse the copy. (This is the counterexample
// the fuzz target found first when only displacements were counted; its
// fourth byte now reads R, not z, which decodes to the same trace with a
// twin still without an L2.)
func TestCacheFamilyUpgradeCopyIsNotCertified(t *testing.T) {
	baseCfg, twinCfg, ops := decodeFamily([]byte("120R121000$27070"))
	if baseCfg != familyConfig(2, 1, 0) || twinCfg != familyConfig(2, 2, 0) {
		t.Fatalf("decoded family changed: base %+v, twin %+v", baseCfg, twinCfg)
	}
	base := familyRun(baseCfg, ops)
	twin := familyRun(twinCfg, ops)
	if base.stats == twin.stats {
		t.Fatalf("the upgrade trace no longer diverges (%+v); the duplicate-fill rule may be obsolete", base.stats)
	}
	if base.footprint.ExactOn(baseCfg, twinCfg) {
		t.Errorf("ExactOn passed the base's run (%+v), yet its twin runs differently: %+v vs %+v",
			base.footprint, base.stats, twin.stats)
	}
}

// baselineCache is the hierarchy of the paper's baseline machine (Table
// 1) with the given L1 and L2 sizes.
func baselineCache(l1KB, l2MB int) Config {
	return Config{Clusters: 1, L1KB: l1KB, LineBytes: 128, L1Assoc: 4, L1Lat: 3, L1Ports: 4,
		L2MB: l2MB, L2Lat: 20, MemLat: 200}
}

// TestExactOn pins the footprint half of the rule at its edges, on the
// baseline machine with a 1 MB L2, a 2 MB one and none. An identical
// hierarchy takes any run. Toward a twin with an L2, a run whose lines
// fill it exactly is copied, one line more is not; toward a twin without
// one there is no bound. A refetch is an L2 hit on both sides or a second
// memory fetch on both, but not across the L2 line. A run whose L1
// evicted is copied only to a twin with the same L1 when both have an L2,
// the L2 never evicted and the twin's holds the run's lines. No sweep
// reaches the line bound: the smallest L2 holds 8192 lines, far more than
// a tiny workload touches.
func TestExactOn(t *testing.T) {
	withL2, bigL2, without := baselineCache(32, 1), baselineCache(32, 2), baselineCache(32, 0)
	capacity := withL2.l2Lines()
	if capacity != 8192 {
		t.Fatalf("a 1 MB L2 holds %d lines, want 8192", capacity)
	}
	for _, tc := range []struct {
		base, twin Config
		fp         Footprint
		want       bool
	}{
		{withL2, withL2, Footprint{Lines: capacity + 1, Evictions: 3, L2Evictions: 1, Refetches: 1}, true},
		{without, without, Footprint{Lines: 5, Evictions: 1}, true},
		{bigL2, withL2, Footprint{Lines: 5}, true},
		{bigL2, withL2, Footprint{Lines: capacity}, true},
		{bigL2, withL2, Footprint{Lines: capacity + 1}, false},
		{bigL2, withL2, Footprint{Lines: 5, Refetches: 1}, true},
		{without, withL2, Footprint{Lines: capacity}, true},
		{without, withL2, Footprint{Lines: capacity + 1}, false},
		{without, withL2, Footprint{Lines: 5, Refetches: 1}, false},
		{withL2, without, Footprint{Lines: capacity + 1}, true},
		{withL2, without, Footprint{Lines: 5, Refetches: 1}, false},
		// The L1 evicted.
		{withL2, bigL2, Footprint{Lines: 5, Evictions: 4, Refetches: 2}, true},
		{bigL2, withL2, Footprint{Lines: capacity, Evictions: 4}, true},
		{bigL2, withL2, Footprint{Lines: capacity + 1, Evictions: 4}, false},
		{withL2, bigL2, Footprint{Lines: 5, Evictions: 4, L2Evictions: 1}, false},
		{withL2, baselineCache(64, 2), Footprint{Lines: 5, Evictions: 4}, false},
		{without, withL2, Footprint{Lines: 5, Evictions: 4}, false},
		{withL2, without, Footprint{Lines: 5, Evictions: 4}, false},
		{without, baselineCache(64, 0), Footprint{Lines: 5, Evictions: 4}, false},
	} {
		if got := tc.fp.ExactOn(tc.base, tc.twin); got != tc.want {
			t.Errorf("%+v.ExactOn(L1 %d KB L2 %d MB, L1 %d KB L2 %d MB) = %v, want %v",
				tc.fp, tc.base.L1KB, tc.base.L2MB, tc.twin.L1KB, tc.twin.L2MB, got, tc.want)
		}
	}
}

// TestCacheTwin pins the configuration half of the rule, for a run that
// evicted, refetched and fetched nothing: the same hierarchy but for the
// cache sizes, and the L1 a whole multiple. The L2 may be smaller or
// missing on either side.
func TestCacheTwin(t *testing.T) {
	otherAssoc := baselineCache(16, 1)
	otherAssoc.L1Assoc = 8
	otherClusters := baselineCache(16, 1)
	otherClusters.Clusters = 4
	for _, tc := range []struct {
		base, twin Config
		want       bool
	}{
		{baselineCache(8, 1), baselineCache(8, 1), true},
		{baselineCache(8, 1), baselineCache(32, 4), true},
		{baselineCache(8, 0), baselineCache(16, 0), true},
		{baselineCache(16, 1), baselineCache(8, 1), false},  // smaller L1
		{baselineCache(16, 1), baselineCache(24, 1), false}, // not a multiple
		{baselineCache(8, 2), baselineCache(16, 1), true},   // smaller L2
		{baselineCache(8, 4), baselineCache(8, 1), true},    // smaller L2, same L1
		{baselineCache(8, 0), baselineCache(8, 1), true},    // an L2 on the twin only
		{baselineCache(8, 1), baselineCache(16, 0), true},   // an L2 on the base only
		{baselineCache(16, 0), baselineCache(8, 1), false},  // smaller L1, across the L2 line
		{baselineCache(8, 1), otherAssoc, false},            // another field differs
		{baselineCache(8, 1), otherClusters, false},         // another field differs
	} {
		if got := (Footprint{}).ExactOn(tc.base, tc.twin); got != tc.want {
			t.Errorf("ExactOn(%+v, %+v) = %v, want %v", tc.base, tc.twin, got, tc.want)
		}
	}
}
