package cache

import (
	"runtime"
	"testing"

	"wavescalar/internal/noc"
)

// churnLines is how many lines a churn round touches: more than the L1
// and the L2 of churnConfig hold.
const churnLines = 12

// churnConfig is the hierarchy churn drives: four clusters with 8-line
// L1s (two sets of four ways) and a 10-line L2.
func churnConfig() Config { return familyConfig(4, 1, 10) }

// churn drives a System over a fixed set of lines through an instant
// one-hop network whose two queues keep their backing arrays, so that
// every allocation a round makes is the hierarchy's own.
type churn struct {
	sys         *System
	inbox, next []*noc.Message
	cycle, id   uint64
	round       uint64
}

func newChurn() *churn {
	ch := &churn{}
	ch.sys = New(churnConfig(), func(uint64, int, uint64) {}, func(_ uint64, m *noc.Message) bool {
		ch.next = append(ch.next, m)
		return true
	})
	return ch
}

// run plays one round. Cluster 0 writes every line, reading each again
// in the same cycle so that the miss merges in its MSHR: its modified
// lines overflow its L1 (dirty writebacks), the lines overflow the L2
// (evictions, which invalidate L1 copies), and the lines other clusters
// read last round are invalidated. One other cluster, a new one each round,
// then reads the last six lines, which the L2 still holds, downgrading
// cluster 0's modified copies, and cluster 0 reads its last four lines
// again, which hit. The round ends when the
// hierarchy is quiet.
func (ch *churn) run() {
	reader := 1 + int(ch.round%3)
	for ln := uint64(0); ln < churnLines; ln++ {
		ch.access(0, ln, true)
		ch.access(0, ln, false)
		ch.step()
	}
	ch.quiesce()
	for ln := uint64(churnLines - 6); ln < churnLines; ln++ {
		ch.access(reader, ln, false)
		ch.step()
	}
	ch.quiesce()
	for ln := uint64(churnLines - 4); ln < churnLines; ln++ {
		ch.access(0, ln, false)
		ch.step()
	}
	ch.quiesce()
	ch.round++
}

// access starts an access by cluster to a word of line ln.
func (ch *churn) access(cluster int, ln uint64, write bool) {
	ch.sys.Access(ch.cycle, cluster, ch.id, ln*uint64(churnConfig().LineBytes)+ch.id%16, write)
	ch.id++
}

// quiesce steps until no access or message is in flight.
func (ch *churn) quiesce() {
	for ch.sys.Outstanding() > 0 || len(ch.next) > 0 {
		ch.step()
	}
}

// step delivers the messages sent last cycle and ticks the hierarchy.
func (ch *churn) step() {
	ch.inbox, ch.next = ch.next, ch.inbox[:0]
	for _, m := range ch.inbox {
		ch.sys.Deliver(ch.cycle, m.Dst, m)
	}
	ch.sys.Tick(ch.cycle)
	ch.cycle++
}

// mallocs counts the heap allocations fn makes, exactly: unlike
// testing.AllocsPerRun it reports a total, not a mean rounded down.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMissPathAllocatesNothing requires a warm hierarchy to allocate
// nothing: coherence messages, MSHRs with their waiter lists and directory
// entries all recycle, and the L2's LRU list is threaded through the
// directory entries. The measured rounds must exercise every path that
// once allocated: L1 hits and misses, MSHR merges, dirty writebacks,
// invalidations, downgrades and L2 evictions.
func TestMissPathAllocatesNothing(t *testing.T) {
	ch := newChurn()
	for i := 0; i < 24; i++ {
		ch.run()
	}
	st, fp := ch.sys.Stats(), ch.sys.Footprint()
	const rounds = 48
	if n := mallocs(func() {
		for i := 0; i < rounds; i++ {
			ch.run()
		}
	}); n != 0 {
		t.Errorf("%d warm rounds allocated %d objects, want 0", rounds, n)
	}
	after, afterFp := ch.sys.Stats(), ch.sys.Footprint()
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"L1 hits", after.L1Hits - st.L1Hits},
		{"L1 misses", after.L1Misses - st.L1Misses},
		{"MSHR merges", after.MSHRMerges - st.MSHRMerges},
		{"dirty writebacks", after.L1Writebacks - st.L1Writebacks},
		{"invalidations", after.Invalidations - st.Invalidations},
		{"downgrades", after.Downgrades - st.Downgrades},
		{"L2 evictions", afterFp.L2Evictions - fp.L2Evictions},
	} {
		if c.n < rounds {
			t.Errorf("%d warm rounds made %d %s, want at least one a round", rounds, c.n, c.name)
		}
	}
}

// BenchmarkMissPath is one churn round (churnLines accesses, most of
// them misses with a merge) on a warm hierarchy; -benchmem reports what
// the miss path allocates, which TestMissPathAllocatesNothing holds at 0.
func BenchmarkMissPath(b *testing.B) {
	ch := newChurn()
	for i := 0; i < 24; i++ {
		ch.run()
	}
	st := ch.sys.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ch.sys.Stats().Accesses-st.Accesses), "ns/access")
}
