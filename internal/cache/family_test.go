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

// familyRun plays ops on a hierarchy with l1KB of L1 per cluster and an
// L2 of l2Lines lines (0: no L2) over an instant one-hop network, and
// returns every callback in order, the final Stats, the eviction count and
// the lines the L2 held at the end. The L2 is sized in lines rather than
// megabytes so that a short trace can fill it; the capacity is read in one
// place (installL2) either way.
func familyRun(clusters, l1KB, l2Lines int, ops []familyOp) ([]familyEvent, Stats, uint64, int) {
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
	return events, sys.Stats(), sys.Evictions(), sys.L2Lines()
}

// decodeFamily turns fuzz bytes into a machine family and a trace: the
// base hierarchy (clusters, L1 size, L2 lines) and its twin (the L1 k
// times larger, both with or both without an L2). The twin's L2 is at
// least as large as the base's for three of the seven values of
// data[3]/40 and at most as large, down to one line, for the rest.
func decodeFamily(data []byte) (clusters, l1, twinL1, l2, twinL2 int, ops []familyOp) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	clusters = []int{1, 2, 4}[int(data[0])%3]
	l1 = 1 + int(data[1])%2
	twinL1 = l1 << (int(data[1]>>1) % 3)
	if data[2]%4 != 0 {
		l2 = 4 + int(data[2])%29
		if k := int(data[3]) / 40; k < 3 {
			twinL2 = l2 + int(data[2]>>5)*4
		} else {
			twinL2 = 1 + (int(data[2]>>5)*5+k)%l2
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

// familySeeds draws the fuzz target's seed corpus: random traces over
// every header (cluster count, L1 sizes, L2 sizes, line range).
func familySeeds() [][]byte {
	rng := rand.New(rand.NewSource(20061))
	seeds := make([][]byte, 300)
	for i := range seeds {
		seeds[i] = make([]byte, 4+2*(1+rng.Intn(120)))
		rng.Read(seeds[i])
	}
	return seeds
}

// FuzzCacheFamily is the certificate behind the explorer's cache-family
// reuse: whenever a run reports zero evictions and ends with N lines in
// its L2, the same trace on a twin with an L1 that is a multiple of its
// size and an L2 of at least N lines (both with or both without one; the
// twin's L2 may be smaller than the base's) makes the identical sequence
// of done and send callbacks and ends with identical Stats. A twin whose
// L2 holds fewer than N lines must evict: the bound is tight.
func FuzzCacheFamily(f *testing.F) {
	for _, b := range familySeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		clusters, l1, twinL1, l2, twinL2, ops := decodeFamily(data)
		base, baseStats, ev, footprint := familyRun(clusters, l1, l2, ops)
		if ev != 0 {
			return
		}
		twin, twinStats, twinEv, _ := familyRun(clusters, twinL1, twinL2, ops)
		if footprint > twinL2 {
			if twinEv == 0 {
				t.Errorf("twin (L1 %d KB, L2 %d lines) did not evict, yet its base's L2 ended holding %d lines",
					twinL1, twinL2, footprint)
			}
			return
		}
		if twinEv != 0 {
			t.Errorf("twin (L1 %d KB, L2 %d lines) evicted %d times; its base (L1 %d KB, L2 %d lines) none",
				twinL1, twinL2, twinEv, l1, l2)
		}
		if baseStats != twinStats {
			t.Fatalf("stats differ: base (L1 %d KB, L2 %d lines) %+v, twin (L1 %d KB, L2 %d lines) %+v",
				l1, l2, baseStats, twinL1, twinL2, twinStats)
		}
		if len(base) != len(twin) {
			t.Fatalf("base made %d callbacks, twin %d", len(base), len(twin))
		}
		for i := range base {
			if !reflect.DeepEqual(base[i], twin[i]) {
				t.Fatalf("callback %d: base %+v, twin %+v", i, base[i], twin[i])
			}
		}
	})
}

// TestCacheFamilySeedsCertify keeps the fuzz target's seeds from going
// vacuous: a good share of them must run eviction-free on multi-cluster
// machines with an L2, where coherence traffic is exercised, and without
// one; and a good share must certify a twin whose L2 is smaller than the
// base's, and leave another whose L2 is smaller than the footprint, where
// the twin must evict.
func TestCacheFamilySeedsCertify(t *testing.T) {
	certified := map[bool]int{}
	smaller, short := 0, 0
	for _, b := range familySeeds() {
		clusters, l1, _, l2, twinL2, ops := decodeFamily(b)
		_, _, ev, footprint := familyRun(clusters, l1, l2, ops)
		if ev != 0 {
			continue
		}
		if clusters > 1 {
			certified[l2 > 0]++
		}
		if twinL2 < l2 {
			if footprint <= twinL2 {
				smaller++
			} else {
				short++
			}
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
}

// TestCacheFamilyL2BoundIsTight pins the L2 half of the certificate at its
// edge. Two clusters read six lines between them, then one writes a line
// the other holds; the run evicts nothing and ends with six lines in its
// L2. A twin whose L2 holds exactly six lines, a quarter of the base's,
// runs identically; one whose L2 holds five evicts on the sixth install,
// invalidates an L1 copy, and ends with other Stats.
func TestCacheFamilyL2BoundIsTight(t *testing.T) {
	var ops []familyOp
	for ln := uint64(0); ln < 6; ln++ {
		ops = append(ops, familyOp{gap: 1, cluster: int(ln % 2), line: ln})
	}
	ops = append(ops, familyOp{gap: 1, cluster: 1, line: 0, write: true})
	const clusters, l1, l2 = 2, 2, 24
	base, baseStats, ev, footprint := familyRun(clusters, l1, l2, ops)
	if ev != 0 || footprint != 6 {
		t.Fatalf("base: %d evictions, %d L2 lines; want 0 and 6", ev, footprint)
	}
	twin, twinStats, twinEv, _ := familyRun(clusters, l1, footprint, ops)
	if twinEv != 0 || twinStats != baseStats || !reflect.DeepEqual(twin, base) {
		t.Errorf("twin with a %d-line L2: %d evictions, stats %+v; want the base's run, %+v",
			footprint, twinEv, twinStats, baseStats)
	}
	_, shortStats, shortEv, _ := familyRun(clusters, l1, footprint-1, ops)
	if shortEv == 0 {
		t.Errorf("twin with a %d-line L2 did not evict", footprint-1)
	}
	if shortStats == baseStats {
		t.Errorf("twin with a %d-line L2 ran like the base (%+v); the bound is not shown tight", footprint-1, baseStats)
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
// when only displacements were counted.)
func TestCacheFamilyUpgradeCopyIsNotCertified(t *testing.T) {
	clusters, l1, twinL1, l2, twinL2, ops := decodeFamily([]byte("120z121000$27070"))
	if clusters != 2 || l1 != 1 || twinL1 != 2 || l2 != 0 || twinL2 != 0 {
		t.Fatalf("decoded family changed: %d clusters, L1 %d/%d KB, L2 %d/%d lines", clusters, l1, twinL1, l2, twinL2)
	}
	_, baseStats, ev, _ := familyRun(clusters, l1, l2, ops)
	_, twinStats, _, _ := familyRun(clusters, twinL1, twinL2, ops)
	if baseStats == twinStats {
		t.Fatalf("the upgrade trace no longer diverges (%+v); the duplicate-fill rule may be obsolete", baseStats)
	}
	if ev == 0 {
		t.Errorf("base reports no evictions, yet its twin runs differently: %+v vs %+v", baseStats, twinStats)
	}
}
