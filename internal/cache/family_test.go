package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"wavescalar/internal/noc"
)

// familyEvent is one callback a System made: a completion (done) or a
// message injection (send).
type familyEvent struct {
	cycle    uint64
	done     bool
	cluster  int // done: the issuing cluster; send: the source
	dst      int
	reqID    uint64
	payload  any
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
// final Stats, and the certificate (Evictions, Refetches, L2Lines).
type familyResult struct {
	events               []familyEvent
	stats                Stats
	evictions, refetches uint64
	lines                int
}

// familyRun plays ops on a hierarchy with l1KB of L1 per cluster and an
// L2 of l2Lines lines (0: no L2) over an instant one-hop network. The L2
// is sized in lines rather than megabytes so that a short trace can fill
// it; the capacity is read in one place (installL2) either way.
func familyRun(clusters, l1KB, l2Lines int, ops []familyOp) familyResult {
	cfg := Config{Clusters: clusters, L1KB: l1KB, LineBytes: 128, L1Assoc: 4,
		L1Lat: 3, L1Ports: 2, L2MB: 0, L2Lat: 20, MemLat: 200}
	var events []familyEvent
	var inbox []*noc.Message
	sys := New(cfg,
		func(cycle uint64, cluster int, reqID uint64) {
			events = append(events, familyEvent{cycle: cycle, done: true, cluster: cluster, reqID: reqID})
		},
		func(cycle uint64, m *noc.Message) bool {
			events = append(events, familyEvent{cycle: cycle, cluster: m.Src, dst: m.Dst, payload: m.Payload, toMemory: m.ToMem})
			inbox = append(inbox, m)
			return true
		})
	sys.l2cap = l2Lines

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
			sys.Access(c, op.cluster, uint64(i), op.line*128+op.line%128, op.write)
		}
		sys.Tick(c)
		if i == len(ops) && len(inbox) == 0 && sys.Outstanding() == 0 {
			break
		}
	}
	return familyResult{events, sys.Stats(), sys.Evictions(), sys.Refetches(), sys.L2Lines()}
}

// decodeFamily turns fuzz bytes into a machine family and a trace: the
// base hierarchy (clusters, L1 size, L2 lines) and its twin (the L1 k
// times larger). By k = data[3]/40, a base with an L2 draws a twin whose
// L2 is at least as large (k < 2), at most as large down to one line
// (k < 5) or missing; a base without one draws a twin without one
// (k < 3) or with one of 1 to 40 lines.
func decodeFamily(data []byte) (clusters, l1, twinL1, l2, twinL2 int, ops []familyOp) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	clusters = []int{1, 2, 4}[int(data[0])%3]
	l1 = 1 + int(data[1])%2
	twinL1 = l1 << (int(data[1]>>1) % 3)
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

// FuzzCacheFamily is the certificate behind the explorer's cache-family
// reuse. Whenever a run reports zero evictions and its directory ends
// tracking N lines, the same trace on a twin with an L1 that is a
// multiple of its size and, on the same side of the L2 line, no L2 or one
// of at least N lines (the twin's may be smaller than the base's) makes
// the identical sequence of done and send callbacks and ends with
// identical Stats; and so does a twin across the line, from an L2 to none
// or from none to one of at least N lines, if the run reports zero
// refetches too. Both rules are tight: a twin whose L2 holds fewer than N
// lines must evict, and a twin across the line from a run that refetched
// ends with other Stats.
func FuzzCacheFamily(f *testing.F) {
	for _, b := range familySeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		clusters, l1, twinL1, l2, twinL2, ops := decodeFamily(data)
		base := familyRun(clusters, l1, l2, ops)
		if base.evictions != 0 {
			return
		}
		twin := familyRun(clusters, twinL1, twinL2, ops)
		if twinL2 > 0 && base.lines > twinL2 {
			if twin.evictions == 0 {
				t.Errorf("twin (L1 %d KB, L2 %d lines) did not evict, yet its base's directory ended tracking %d lines",
					twinL1, twinL2, base.lines)
			}
			return
		}
		if twin.evictions != 0 {
			t.Errorf("twin (L1 %d KB, L2 %d lines) evicted %d times; its base (L1 %d KB, L2 %d lines) none",
				twinL1, twinL2, twin.evictions, l1, l2)
		}
		if (l2 == 0) != (twinL2 == 0) && base.refetches != 0 {
			if twin.stats == base.stats {
				t.Errorf("base (L1 %d KB, L2 %d lines) refetched %d times, yet its twin across the L2 line (L1 %d KB, L2 %d lines) ended with its Stats, %+v",
					l1, l2, base.refetches, twinL1, twinL2, base.stats)
			}
			return
		}
		if base.stats != twin.stats {
			t.Fatalf("stats differ: base (L1 %d KB, L2 %d lines) %+v, twin (L1 %d KB, L2 %d lines) %+v",
				l1, l2, base.stats, twinL1, twinL2, twin.stats)
		}
		if len(base.events) != len(twin.events) {
			t.Fatalf("base made %d callbacks, twin %d", len(base.events), len(twin.events))
		}
		for i := range base.events {
			if !reflect.DeepEqual(base.events[i], twin.events[i]) {
				t.Fatalf("callback %d: base %+v, twin %+v", i, base.events[i], twin.events[i])
			}
		}
	})
}

// TestCacheFamilySeedsCertify keeps the fuzz target's seeds from going
// vacuous: a good share of them must run eviction-free on multi-cluster
// machines with an L2, where coherence traffic is exercised, and without
// one; a good share must certify a twin whose L2 is smaller than the
// base's, and leave another whose L2 is smaller than the footprint, where
// the twin must evict; and a good share must certify a twin across the
// L2 line each way, an L2 base's twin without one and a base's without
// one whose twin's L2 holds the footprint, and leave others across the
// line whose base refetched.
func TestCacheFamilySeedsCertify(t *testing.T) {
	certified := map[bool]int{}
	smaller, short, down, up, refetched := 0, 0, 0, 0, 0
	for _, b := range familySeeds() {
		clusters, l1, _, l2, twinL2, ops := decodeFamily(b)
		base := familyRun(clusters, l1, l2, ops)
		if base.evictions != 0 {
			continue
		}
		if clusters > 1 {
			certified[l2 > 0]++
		}
		switch {
		case twinL2 > 0 && base.lines > twinL2:
			short++
		case (l2 == 0) != (twinL2 == 0) && base.refetches != 0:
			refetched++
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
		t.Errorf("eviction-free seeds with a smaller twin L2: %d hold the footprint, %d do not; want >= 10 and >= 5",
			smaller, short)
	}
	if down < 10 || up < 10 || refetched < 10 {
		t.Errorf("eviction-free seeds with a twin across the L2 line: %d certified from an L2 to none, %d from none to one, %d refetched; want >= 10 each",
			down, up, refetched)
	}
}

// TestCacheFamilyL2BoundIsTight pins the L2 half of the certificate at its
// edge. Two clusters read six lines between them, then one writes a line
// the other holds; the run neither evicts nor refetches and its directory
// ends tracking six lines, whether the base has a 24-line L2 or none. A
// twin whose L2 holds exactly six lines runs identically; one whose L2
// holds five evicts on the sixth install, invalidates an L1 copy, and
// ends with other Stats.
func TestCacheFamilyL2BoundIsTight(t *testing.T) {
	var ops []familyOp
	for ln := uint64(0); ln < 6; ln++ {
		ops = append(ops, familyOp{gap: 1, cluster: int(ln % 2), line: ln})
	}
	ops = append(ops, familyOp{gap: 1, cluster: 1, line: 0, write: true})
	const clusters, l1 = 2, 2
	for _, l2 := range []int{24, 0} {
		base := familyRun(clusters, l1, l2, ops)
		if base.evictions != 0 || base.refetches != 0 || base.lines != 6 {
			t.Fatalf("base with a %d-line L2: %d evictions, %d refetches, %d lines; want 0, 0 and 6",
				l2, base.evictions, base.refetches, base.lines)
		}
		twin := familyRun(clusters, l1, base.lines, ops)
		if !reflect.DeepEqual(twin, base) {
			t.Errorf("base with a %d-line L2, twin with a %d-line L2: %d evictions, stats %+v; want the base's run, %+v",
				l2, base.lines, twin.evictions, twin.stats, base.stats)
		}
		short := familyRun(clusters, l1, base.lines-1, ops)
		if short.evictions == 0 {
			t.Errorf("base with a %d-line L2: twin with a %d-line L2 did not evict", l2, base.lines-1)
		}
		if short.stats == base.stats {
			t.Errorf("base with a %d-line L2: twin with a %d-line L2 ran like the base (%+v); the bound is not shown tight",
				l2, base.lines-1, base.stats)
		}
	}
}

// TestCacheFamilyRefetchIsNotCertified pins why a refetch bars a copy
// across the L2 line. Two clusters read line 0, so both share it, and then
// one writes it: the write asks the directory for a line it has served
// before, with no remote owner. With an L2 that is an L2 hit; without one,
// a second memory fetch, and the write completes 200 cycles later. When
// the writer is one of the two sharers, its upgrade also fills a second
// copy of the line, which Evictions counts; when a third cluster writes,
// the refetch is all there is to count, and a twin on the same side of
// the line (a larger L1, a smaller L2) still runs identically.
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
				base := familyRun(tc.clusters, 1, l2, ops)
				if base.evictions != tc.evictions || base.refetches != 1 {
					t.Errorf("base with a %d-line L2: %d evictions, %d refetches; want %d and 1",
						l2, base.evictions, base.refetches, tc.evictions)
				}
				across := familyRun(tc.clusters, 1, 4-l2, ops)
				if reflect.DeepEqual(base.events, across.events) || base.stats == across.stats {
					t.Errorf("base with a %d-line L2 and its twin with %d lines ran alike (%+v); the refetch rule may be obsolete",
						l2, 4-l2, base.stats)
				}
				if tc.evictions != 0 {
					continue
				}
				same := familyRun(tc.clusters, 2, min(l2, 1), ops)
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
// valid line. (This is the counterexample the fuzz target found first
// when only displacements were counted; its fourth byte now reads R, not
// z, which decodes to the same trace with a twin still without an L2.)
func TestCacheFamilyUpgradeCopyIsNotCertified(t *testing.T) {
	clusters, l1, twinL1, l2, twinL2, ops := decodeFamily([]byte("120R121000$27070"))
	if clusters != 2 || l1 != 1 || twinL1 != 2 || l2 != 0 || twinL2 != 0 {
		t.Fatalf("decoded family changed: %d clusters, L1 %d/%d KB, L2 %d/%d lines", clusters, l1, twinL1, l2, twinL2)
	}
	base := familyRun(clusters, l1, l2, ops)
	twin := familyRun(clusters, twinL1, twinL2, ops)
	if base.stats == twin.stats {
		t.Fatalf("the upgrade trace no longer diverges (%+v); the duplicate-fill rule may be obsolete", base.stats)
	}
	if base.evictions == 0 {
		t.Errorf("base reports no evictions, yet its twin runs differently: %+v vs %+v", base.stats, twin.stats)
	}
}
