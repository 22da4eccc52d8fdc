package cache

import (
	"testing"

	"wavescalar/internal/noc"
)

// harness wires a System to an instant-delivery network and records
// completions and every message sent.
type harness struct {
	sys   *System
	inbox []*noc.Message
	dones map[uint64]uint64 // reqID -> completion cycle
	sent  []sentMsg
}

// sentMsg is a message as the System sent it. It is copied at send: the
// record itself returns to the System's free list when delivered and
// carries another message after that.
type sentMsg struct {
	src, dst int
	body
}

func newHarness(cfg Config) *harness {
	h := &harness{dones: map[uint64]uint64{}}
	h.sys = New(cfg,
		func(cycle uint64, cluster int, reqID uint64) { h.dones[reqID] = cycle },
		func(cycle uint64, m *noc.Message) bool {
			h.inbox = append(h.inbox, m)
			h.sent = append(h.sent, sentMsg{m.Src, m.Dst, m.Payload.(*msg).body})
			return true
		})
	return h
}

// run advances n cycles, delivering queued messages with a 1-cycle hop.
func (h *harness) run(from, to uint64) {
	for c := from; c <= to; c++ {
		pending := h.inbox
		h.inbox = nil
		for _, m := range pending {
			h.sys.Deliver(c, m.Dst, m)
		}
		h.sys.Tick(c)
	}
}

func cfg1() Config {
	return Config{Clusters: 1, L1KB: 8, LineBytes: 128, L1Assoc: 4,
		L1Lat: 3, L1Ports: 4, L2MB: 1, L2Lat: 20, MemLat: 200}
}

func cfg4() Config {
	c := cfg1()
	c.Clusters = 4
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := cfg1().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg1()
	bad.L1KB = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero L1 accepted")
	}
	bad = cfg1()
	bad.Clusters = 100
	if err := bad.Validate(); err == nil {
		t.Error("100 clusters accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := newHarness(cfg1())
	h.sys.Access(0, 0, 1, 0x1000, false)
	h.run(1, 300)
	c1, ok := h.dones[1]
	if !ok {
		t.Fatal("request 1 never completed")
	}
	// Cold miss: L2 latency + memory latency + L1 fill, well over 200.
	if c1 < 200 {
		t.Errorf("cold miss completed at %d, want >= 200", c1)
	}
	// Re-access: L1 hit at 3 cycles.
	h.sys.Access(c1, 0, 2, 0x1000, false)
	h.run(c1+1, c1+10)
	c2 := h.dones[2]
	if c2-c1 != 3 {
		t.Errorf("hit latency = %d, want 3", c2-c1)
	}
	st := h.sys.Stats()
	if st.L1Hits != 1 || st.L1Misses != 1 || st.L2Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestL2HitLatency(t *testing.T) {
	h := newHarness(cfg1())
	// Warm the L2 with line A, then evict it from L1 by filling the set.
	h.sys.Access(0, 0, 1, 0x0, false)
	h.run(1, 300)
	base := h.dones[1]
	// Same set: line addresses differing by numSets*128. 8KB/128B/4 = 16 sets.
	setStride := uint64(16 * 128)
	for i := uint64(0); i < 4; i++ {
		h.sys.Access(base+i, 0, 10+i, (i+1)*setStride, false)
	}
	h.run(base+1, base+1200)
	// Line 0 evicted (silent, clean). Re-access: L2 hit, not memory.
	start := base + 1200
	h.sys.Access(start, 0, 99, 0x0, false)
	h.run(start+1, start+100)
	lat := h.dones[99] - start
	if lat < 20 || lat > 40 {
		t.Errorf("L2 hit latency = %d, want ~20-30 (not a memory access)", lat)
	}
	if h.sys.Stats().L2Hits == 0 {
		t.Error("expected an L2 hit")
	}
}

func TestNoL2GoesToMemoryEveryTime(t *testing.T) {
	c := cfg1()
	c.L2MB = 0
	h := newHarness(c)
	h.sys.Access(0, 0, 1, 0x0, false)
	h.run(1, 300)
	base := h.dones[1]
	setStride := uint64(16 * 128)
	for i := uint64(0); i < 4; i++ {
		h.sys.Access(base+i, 0, 10+i, (i+1)*setStride, false)
	}
	h.run(base+1, base+1500)
	start := base + 1500
	h.sys.Access(start, 0, 99, 0x0, false)
	h.run(start+1, start+400)
	lat := h.dones[99] - start
	if lat < 200 {
		t.Errorf("without an L2, a refetch costs %d, want >= 200 (memory)", lat)
	}
}

func TestWriteObtainsModified(t *testing.T) {
	h := newHarness(cfg1())
	h.sys.Access(0, 0, 1, 0x40, true)
	h.run(1, 300)
	// A subsequent write to the same line is a hit.
	done := h.dones[1]
	h.sys.Access(done, 0, 2, 0x48, true)
	h.run(done+1, done+10)
	if h.dones[2]-done != 3 {
		t.Errorf("write hit latency = %d, want 3", h.dones[2]-done)
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	h := newHarness(cfg4())
	// Cluster 0 and 1 read the same line; cluster 2 writes it.
	h.sys.Access(0, 0, 1, 0x1000, false)
	h.run(1, 300)
	h.sys.Access(300, 1, 2, 0x1000, false)
	h.run(301, 600)
	h.sys.Access(600, 2, 3, 0x1000, true)
	h.run(601, 1000)
	if _, ok := h.dones[3]; !ok {
		t.Fatal("write never completed")
	}
	st := h.sys.Stats()
	if st.Invalidations < 2 {
		t.Errorf("invalidations = %d, want >= 2 (two sharers)", st.Invalidations)
	}
	// Now cluster 0 reads again: its copy was invalidated, so it misses
	// and the owner (cluster 2) is downgraded.
	pre := h.sys.Stats().L1Misses
	h.sys.Access(1000, 0, 4, 0x1000, false)
	h.run(1001, 1400)
	if h.sys.Stats().L1Misses != pre+1 {
		t.Error("read after invalidation should miss")
	}
	if h.sys.Stats().Downgrades == 0 {
		t.Error("expected a downgrade of the modified owner")
	}
}

func TestMSHRMergesDuplicateMisses(t *testing.T) {
	h := newHarness(cfg1())
	h.sys.Access(0, 0, 1, 0x2000, false)
	h.sys.Access(0, 0, 2, 0x2008, false) // same line
	h.run(1, 300)
	if h.sys.Stats().MSHRMerges != 1 {
		t.Errorf("merges = %d, want 1", h.sys.Stats().MSHRMerges)
	}
	if _, ok := h.dones[2]; !ok {
		t.Error("merged request never completed")
	}
	// Only one directory request should have been sent.
	reqs := 0
	for _, m := range h.sent {
		if m.kind == dirReq && !m.isWB {
			reqs++
		}
	}
	if reqs != 1 {
		t.Errorf("directory requests = %d, want 1", reqs)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := newHarness(cfg1())
	h.sys.Access(0, 0, 1, 0x0, true) // dirty line 0
	h.run(1, 300)
	base := h.dones[1]
	setStride := uint64(16 * 128)
	for i := uint64(0); i < 4; i++ {
		h.sys.Access(base+10*i, 0, 10+i, (i+1)*setStride, false)
	}
	h.run(base+1, base+1500)
	if h.sys.Stats().L1Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", h.sys.Stats().L1Writebacks)
	}
}

func TestL2CapacityEviction(t *testing.T) {
	c := cfg1()
	c.L2MB = 1 // 8192 lines
	h := newHarness(c)
	lines := 1<<20/128 + 64 // just over capacity
	cycle := uint64(0)
	for i := 0; i < lines; i++ {
		h.sys.Access(cycle, 0, uint64(1000+i), uint64(i)*128, false)
		cycle += 2
		if i%64 == 63 {
			h.run(cycle, cycle+300)
			cycle += 301
		}
	}
	h.run(cycle, cycle+2000)
	// The first lines must have been evicted from the L2.
	st := h.sys.Stats()
	if st.L2Misses < uint64(lines) {
		t.Errorf("L2 misses = %d, want >= %d (streaming over capacity)", st.L2Misses, lines)
	}
}

func TestBankDistribution(t *testing.T) {
	h := newHarness(cfg4())
	seen := map[int]bool{}
	for i := uint64(0); i < 16; i++ {
		seen[h.sys.Bank(i)] = true
	}
	if len(seen) != 4 {
		t.Errorf("lines map to %d banks, want 4", len(seen))
	}
}

func TestOutstandingDrains(t *testing.T) {
	h := newHarness(cfg4())
	for i := uint64(0); i < 8; i++ {
		h.sys.Access(0, int(i%4), i, i*0x1000, i%2 == 0)
	}
	h.run(1, 2000)
	if n := h.sys.Outstanding(); n != 0 {
		t.Errorf("outstanding = %d after drain", n)
	}
	for i := uint64(0); i < 8; i++ {
		if _, ok := h.dones[i]; !ok {
			t.Errorf("request %d never completed", i)
		}
	}
}
