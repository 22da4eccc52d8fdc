package storebuf

import (
	"math/rand"
	"testing"
	"unsafe"

	"wavescalar/internal/isa"
)

func cfg() Config { return Config{Contexts: 4, PSQs: 2, PSQEntries: 4, PipelineLat: 0} }

type recorder struct {
	ops []Issued
}

func (r *recorder) fn(cycle uint64, op Issued) { r.ops = append(r.ops, op) }

func mk(cfg Config) (*Buffer, *recorder) {
	r := &recorder{}
	return New(cfg, r.fn), r
}

func mi(pred, seq, succ int32) isa.MemInfo { return isa.MemInfo{Pred: pred, Seq: seq, Succ: succ} }

func tag(th, w uint32) isa.Tag { return isa.Tag{Thread: th, Wave: w} }

func TestInOrderIssueWithinWave(t *testing.T) {
	b, r := mk(cfg())
	// Arrive out of order: seq 1 then seq 0.
	b.Enqueue(0, Request{Kind: ReqLoad, Inst: 2, Tag: tag(0, 0), Mem: mi(0, 1, isa.SeqNone), Addr: 16})
	b.Tick(1)
	if len(r.ops) != 0 {
		t.Fatal("seq 1 must not issue before seq 0")
	}
	b.Enqueue(1, Request{Kind: ReqLoad, Inst: 1, Tag: tag(0, 0), Mem: mi(isa.SeqNone, 0, 1), Addr: 8})
	b.Tick(2)
	if len(r.ops) != 2 {
		t.Fatalf("issued %d ops, want 2", len(r.ops))
	}
	if r.ops[0].Addr != 8 || r.ops[1].Addr != 16 {
		t.Errorf("issue order wrong: %+v", r.ops)
	}
	if b.Stats().WavesDone != 1 {
		t.Errorf("waves done = %d, want 1", b.Stats().WavesDone)
	}
}

func TestCrossWaveSequencing(t *testing.T) {
	b, r := mk(cfg())
	// Wave 1's op arrives first; wave 0's op later. Wave 1 must wait.
	b.Enqueue(0, Request{Kind: ReqStoreFull, Inst: 5, Tag: tag(0, 1), Mem: mi(isa.SeqNone, 0, isa.SeqNone), Addr: 100, Data: 1})
	b.Tick(1)
	if len(r.ops) != 0 {
		t.Fatal("wave 1 must wait for wave 0")
	}
	b.Enqueue(1, Request{Kind: ReqNop, Inst: 4, Tag: tag(0, 0), Mem: mi(isa.SeqNone, 0, isa.SeqNone)})
	b.Tick(2)
	b.Tick(3)
	if len(r.ops) != 2 {
		t.Fatalf("issued %d, want 2 (nop then store)", len(r.ops))
	}
	if r.ops[0].Kind != IssueNop || r.ops[1].Kind != IssueStore {
		t.Errorf("order: %+v", r.ops)
	}
}

func TestStoreDecouplingWithPSQ(t *testing.T) {
	b, r := mk(cfg())
	// Chain: store(seq0) -> load(seq1, other addr) -> load(seq2, same addr).
	b.Enqueue(0, Request{Kind: ReqStoreAddr, Inst: 1, Tag: tag(0, 0), Mem: mi(isa.SeqNone, 0, 1), Addr: 64})
	b.Enqueue(0, Request{Kind: ReqLoad, Inst: 2, Tag: tag(0, 0), Mem: mi(0, 1, 2), Addr: 8})
	b.Enqueue(0, Request{Kind: ReqLoad, Inst: 3, Tag: tag(0, 0), Mem: mi(1, 2, isa.SeqNone), Addr: 64})
	b.Tick(1)
	// The dataless store gets a PSQ; the load to 8 flows past; the load to
	// 64 is captured in the PSQ.
	if len(r.ops) != 1 || r.ops[0].Addr != 8 {
		t.Fatalf("expected only the load to 8 to issue, got %+v", r.ops)
	}
	st := b.Stats()
	if st.PSQAllocs != 1 || st.PSQQueued != 1 {
		t.Errorf("psq stats = %+v", st)
	}
	// The wave's ripple completed even though data is outstanding.
	if st.WavesDone != 1 {
		t.Errorf("waves done = %d, want 1 (ripple ran ahead of store data)", st.WavesDone)
	}
	// Data arrives: the store and captured load drain in order.
	b.Enqueue(5, Request{Kind: ReqStoreData, Inst: 1, Tag: tag(0, 0), Data: 42})
	if len(r.ops) != 3 {
		t.Fatalf("after data: %d ops, want 3", len(r.ops))
	}
	if r.ops[1].Kind != IssueStore || r.ops[1].Data != 42 || r.ops[2].Kind != IssueLoad || r.ops[2].Addr != 64 {
		t.Errorf("drain order wrong: %+v", r.ops)
	}
}

func TestNoPSQStallsRipple(t *testing.T) {
	c := cfg()
	c.PSQs = 0
	b, r := mk(c)
	b.Enqueue(0, Request{Kind: ReqStoreAddr, Inst: 1, Tag: tag(0, 0), Mem: mi(isa.SeqNone, 0, 1), Addr: 64})
	b.Enqueue(0, Request{Kind: ReqLoad, Inst: 2, Tag: tag(0, 0), Mem: mi(0, 1, isa.SeqNone), Addr: 8})
	b.Tick(1)
	b.Tick(2)
	if len(r.ops) != 0 {
		t.Fatalf("without PSQs nothing may issue before store data, got %+v", r.ops)
	}
	if b.Stats().PSQStalls == 0 {
		t.Error("expected ripple stalls to be counted")
	}
	b.Enqueue(3, Request{Kind: ReqStoreData, Inst: 1, Tag: tag(0, 0), Data: 9})
	b.Tick(4)
	if len(r.ops) != 2 {
		t.Fatalf("after data %d ops, want 2", len(r.ops))
	}
	if r.ops[0].Kind != IssueStore || r.ops[1].Kind != IssueLoad {
		t.Errorf("order: %+v", r.ops)
	}
}

func TestEarlyStoreData(t *testing.T) {
	b, r := mk(cfg())
	// Data half arrives before the address half.
	b.Enqueue(0, Request{Kind: ReqStoreData, Inst: 1, Tag: tag(0, 0), Data: 7})
	b.Tick(1)
	if len(r.ops) != 0 {
		t.Fatal("data alone must not issue")
	}
	b.Enqueue(1, Request{Kind: ReqStoreAddr, Inst: 1, Tag: tag(0, 0), Mem: mi(isa.SeqNone, 0, isa.SeqNone), Addr: 32})
	b.Tick(2)
	if len(r.ops) != 1 || r.ops[0].Kind != IssueStore || r.ops[0].Data != 7 || r.ops[0].Addr != 32 {
		t.Fatalf("merged store wrong: %+v", r.ops)
	}
}

func TestContextLimit(t *testing.T) {
	c := cfg()
	c.Contexts = 2
	b, r := mk(c)
	// Three threads, one single-op wave each: only two get contexts in the
	// first grant round.
	for th := uint32(0); th < 3; th++ {
		b.Enqueue(0, Request{Kind: ReqNop, Inst: 1, Tag: tag(th, 0), Mem: mi(isa.SeqNone, 0, isa.SeqNone)})
	}
	b.Tick(1)
	if len(r.ops) != 2 {
		t.Fatalf("first tick issued %d, want 2 (context limit)", len(r.ops))
	}
	if b.Stats().ContextStalls == 0 {
		t.Error("expected context stalls")
	}
	b.Tick(2)
	if len(r.ops) != 3 {
		t.Fatalf("second tick total %d, want 3", len(r.ops))
	}
}

func TestPipelineLatency(t *testing.T) {
	c := cfg()
	c.PipelineLat = 3
	b, r := mk(c)
	b.Enqueue(10, Request{Kind: ReqNop, Inst: 1, Tag: tag(0, 0), Mem: mi(isa.SeqNone, 0, isa.SeqNone)})
	b.Tick(11)
	b.Tick(12)
	if len(r.ops) != 0 {
		t.Fatal("op visible before pipeline latency elapsed")
	}
	b.Tick(13)
	if len(r.ops) != 1 {
		t.Fatalf("op should issue at cycle 13, got %d ops", len(r.ops))
	}
}

func TestManyWavesSequential(t *testing.T) {
	b, r := mk(cfg())
	const waves = 20
	// Arrive in reverse wave order; must issue in increasing wave order.
	for w := waves - 1; w >= 0; w-- {
		b.Enqueue(0, Request{
			Kind: ReqStoreFull, Inst: 1, Tag: tag(0, uint32(w)),
			Mem:  mi(isa.SeqNone, 0, isa.SeqNone),
			Addr: uint64(w * 8), Data: uint64(w),
		})
	}
	for c := uint64(1); c <= waves+5; c++ {
		b.Tick(c)
	}
	if len(r.ops) != waves {
		t.Fatalf("issued %d, want %d", len(r.ops), waves)
	}
	for i, op := range r.ops {
		if op.Data != uint64(i) {
			t.Fatalf("wave order violated at %d: %+v", i, op)
		}
	}
	if b.ActiveContexts() != 0 {
		t.Errorf("contexts leaked: %d", b.ActiveContexts())
	}
}

func TestPSQQueueFullStalls(t *testing.T) {
	c := cfg()
	c.PSQEntries = 1
	b, r := mk(c)
	// store(dataless, 64), load 64, load 64 — second capture overflows.
	b.Enqueue(0, Request{Kind: ReqStoreAddr, Inst: 1, Tag: tag(0, 0), Mem: mi(isa.SeqNone, 0, 1), Addr: 64})
	b.Enqueue(0, Request{Kind: ReqLoad, Inst: 2, Tag: tag(0, 0), Mem: mi(0, 1, 2), Addr: 64})
	b.Enqueue(0, Request{Kind: ReqLoad, Inst: 3, Tag: tag(0, 0), Mem: mi(1, 2, isa.SeqNone), Addr: 64})
	b.Tick(1)
	b.Tick(2)
	if len(r.ops) != 0 {
		t.Fatalf("nothing should reach the cache yet: %+v", r.ops)
	}
	b.Enqueue(3, Request{Kind: ReqStoreData, Inst: 1, Tag: tag(0, 0), Data: 5})
	b.Tick(4)
	b.Tick(5)
	if len(r.ops) != 3 {
		t.Fatalf("after drain: %d ops, want 3", len(r.ops))
	}
	if r.ops[0].Kind != IssueStore || r.ops[1].Addr != 64 || r.ops[2].Addr != 64 {
		t.Errorf("order: %+v", r.ops)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Contexts: 0, PSQs: 2, PSQEntries: 4},
		{Contexts: 4, PSQs: -1},
		{Contexts: 4, PSQs: 2, PSQEntries: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

// Property: for random arrival interleavings of several waves' linear
// chains, the issue order is always sorted by (wave, seq) — the global
// memory-order invariant.
func TestRandomArrivalGlobalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		b, rec := mk(cfg())
		type opSpec struct {
			wave uint32
			seq  int32
			m    isa.MemInfo
		}
		var all []opSpec
		waves := 1 + rng.Intn(5)
		for w := 0; w < waves; w++ {
			n := 1 + rng.Intn(5)
			for s := 0; s < n; s++ {
				pred, succ := int32(s-1), int32(s+1)
				if s == 0 {
					pred = isa.SeqNone
				}
				if s == n-1 {
					succ = isa.SeqNone
				}
				all = append(all, opSpec{wave: uint32(w), seq: int32(s), m: mi(pred, int32(s), succ)})
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		cycle := uint64(0)
		for _, o := range all {
			b.Enqueue(cycle, Request{
				Kind: ReqStoreFull, Inst: 1, Tag: tag(0, o.wave), Mem: o.m,
				Addr: uint64(o.wave)<<16 | uint64(o.seq), Data: 1,
			})
			if rng.Intn(2) == 0 {
				b.Tick(cycle + 1)
				cycle++
			}
		}
		for i := 0; i < 50; i++ {
			b.Tick(cycle + 1)
			cycle++
		}
		if len(rec.ops) != len(all) {
			t.Fatalf("trial %d: issued %d of %d", trial, len(rec.ops), len(all))
		}
		var last uint64
		for i, op := range rec.ops {
			if i > 0 && op.Addr < last {
				t.Fatalf("trial %d: issue order violated at %d: %x after %x",
					trial, i, op.Addr, last)
			}
			last = op.Addr
		}
		if !b.Quiet() {
			t.Fatalf("trial %d: buffer not quiet", trial)
		}
	}
}

// TestWaveTurnoverAllocatesNothing turns a single thread's waves over after
// a warm-up and requires the buffer to allocate nothing per wave: the
// ordering context and its ripple state live in the thread's record, the
// grant queue and a drained partial store queue keep their backing arrays,
// and spilled op slices recycle. Each wave runs the whole path — ops for
// the next wave spill while this one is active, a decoupled store takes a
// partial store queue and captures the load behind it, its data half
// drains the queue, the wave completes and the next is granted — and each
// measured run is one whole wave, so a single allocation per wave reads as
// one, not as a fraction that rounds away.
func TestWaveTurnoverAllocatesNothing(t *testing.T) {
	issued := 0
	b := New(cfg(), func(uint64, Issued) { issued++ })
	cycle, wave := uint64(0), uint32(0)
	enqueueWave := func(w uint32) {
		b.Enqueue(cycle, Request{Kind: ReqStoreAddr, Inst: 1, Tag: tag(0, w), Mem: mi(isa.SeqNone, 0, 1), Addr: 64})
		b.Enqueue(cycle, Request{Kind: ReqLoad, Inst: 2, Tag: tag(0, w), Mem: mi(0, 1, 2), Addr: 64})
		b.Enqueue(cycle, Request{Kind: ReqNop, Inst: 3, Tag: tag(0, w), Mem: mi(1, 2, isa.SeqNone)})
	}
	enqueueWave(0)
	turn := func() {
		enqueueWave(wave + 1) // spills: this wave still owns the context
		cycle++
		b.Tick(cycle) // store to a PSQ, load captured behind it, nop issues: wave done
		b.Enqueue(cycle, Request{Kind: ReqStoreData, Inst: 1, Tag: tag(0, wave), Data: uint64(wave)})
		wave++
	}
	for i := 0; i < 8; i++ {
		turn()
	}
	before := b.Stats()
	const waves = 300
	if per := testing.AllocsPerRun(waves, turn); per != 0 {
		t.Errorf("a wave's turnover allocates %.0f objects, want 0", per)
	}
	// AllocsPerRun calls turn once more than it measures.
	after := b.Stats()
	if got := after.WavesDone - before.WavesDone; got != waves+1 {
		t.Errorf("%d waves completed over %d turns", got, waves+1)
	}
	if got := after.PSQAllocs - before.PSQAllocs; got != waves+1 {
		t.Errorf("%d partial store queues granted over %d turns", got, waves+1)
	}
	if want := 3 * int(wave); issued != want {
		t.Errorf("%d ops issued, want %d", issued, want)
	}
}

// TestOpSize pins a slab entry at one 64-byte cache line: every spilled
// wave's ops share the slab, and a burst of them adds chunks to it.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n != 64 {
		t.Errorf("op is %d bytes, want 64", n)
	}
}

// BenchmarkSpillBurst is fft's store-buffer pattern in miniature: four
// threads each send the ops of 64 waves, youngest wave first, so every wave
// spills before its thread holds a context, and the buffer then drains
// them in order. One op is one such burst on a fresh buffer, from the first
// arrival to quiet; -benchmem reports what a burst allocates — the thread
// records with their spill rings and pending arrays, and the op slab's
// chunks, each grown by doubling — which grows with the logarithm of the
// number of waves spilled, not with the number.
func BenchmarkSpillBurst(b *testing.B) {
	const threads, waves, perWave = 4, 64, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := New(cfg(), func(uint64, Issued) {})
		for th := uint32(0); th < threads; th++ {
			for w := uint32(waves); w > 0; w-- {
				for s := int32(0); s < perWave; s++ {
					pred, succ := s-1, s+1
					if s == 0 {
						pred = isa.SeqNone
					}
					if s == perWave-1 {
						succ = isa.SeqNone
					}
					kind := ReqLoad
					if s%2 == 1 {
						kind = ReqStoreFull
					}
					buf.Enqueue(0, Request{Kind: kind, Inst: isa.InstID(s), Tag: tag(th, w-1), Mem: mi(pred, s, succ),
						Addr: uint64(th)<<32 | uint64(w)<<8 | uint64(s)<<3})
				}
			}
		}
		cycle := uint64(0)
		for ; !buf.Quiet() && cycle < threads*waves*perWave; cycle++ {
			buf.Tick(cycle + 1)
		}
		if st := buf.Stats(); st.WavesDone != threads*waves {
			b.Fatalf("%d of %d waves done after %d cycles", st.WavesDone, threads*waves, cycle)
		}
	}
}
