package match

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"wavescalar/internal/isa"
)

func cfg() Config { return Config{Entries: 16, Assoc: 2, Banks: 4, K: 2} }

// insts is how many local indexes the tests' tables are sized for. The
// tests follow the package contract — one local index per (instruction,
// thread) — and mostly use the instruction number as thread 0's index.
const insts = 32

func tok(inst isa.InstID, thread, wave uint32, port isa.PortID, v uint64) isa.Token {
	return isa.Token{
		Tag:   isa.Tag{Thread: thread, Wave: wave},
		Value: v,
		Dest:  isa.Target{Inst: inst, Port: port},
	}
}

// TestEntrySize pins a matching-table row at one 64-byte cache line: the
// set probe an arriving token makes reads one line per way.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 64 {
		t.Errorf("Entry is %d bytes, want 64", got)
	}
}

// TestUntouchedTableHoldsNoEntries checks that the physical entries and the
// in-memory table wait for a token: every read-only call works on a table
// that has none, a refused token allocates nothing either, and the first
// token written brings the whole flat array, and only its own table's.
func TestUntouchedTableHoldsNoEntries(t *testing.T) {
	set := NewSet(cfg(), []int{2, 3})
	tb, neighbour := &set[0], &set[1]
	tg := isa.Tag{Wave: 1}
	if e := tb.Lookup(1, 1, tg); e != nil {
		t.Errorf("Lookup on an untouched table = %+v", e)
	}
	if out, certain := tb.CertainReject(1, 1, tb.Bank(1, 1), 0); certain {
		t.Errorf("CertainReject on an untouched table is certain of outcome %d", out)
	}
	if tb.Live() != 0 || tb.OverflowSize() != 0 {
		t.Errorf("untouched table holds live %d, overflow %d", tb.Live(), tb.OverflowSize())
	}
	if tb.entries != nil || tb.shared.overflow != nil {
		t.Fatalf("reads allocated: %d entries, overflow map %v", len(tb.entries), tb.shared.overflow != nil)
	}
	if tb.NumSets() != 8 {
		t.Errorf("NumSets = %d before any token, want 8", tb.NumSets())
	}

	if out, _ := tb.Insert(tok(9, 0, 1, 0, 7), 1, 0b011, 0, 10); out != Stored {
		t.Fatalf("first insert = %v, want Stored", out)
	}
	if len(tb.entries) != cfg().Entries || tb.shared.overflow != nil {
		t.Errorf("after one token: %d entries (want %d), overflow map %v (want none)", len(tb.entries), cfg().Entries, tb.shared.overflow != nil)
	}
	if neighbour.entries != nil {
		t.Error("a token for one table allocated its neighbour's entries")
	}
	for li, st := range neighbour.idx {
		if st != (instState{}) {
			t.Errorf("a token for one table wrote the neighbour's index %d: %+v", li, st)
		}
	}
	// The neighbour's first token cuts its entries from the same block,
	// capped at its share, so an append to either table's could not reach
	// the other's.
	if out, _ := neighbour.Insert(tok(9, 0, 1, 0, 7), 1, 0b011, 0, 10); out != Stored {
		t.Fatalf("neighbour's first insert = %v, want Stored", out)
	}
	if cap(tb.entries) != cfg().Entries || cap(neighbour.entries) != cfg().Entries || &tb.entries[0] == &neighbour.entries[0] {
		t.Errorf("entries: capacities %d and %d (want %d each), shared first entry %v",
			cap(tb.entries), cap(neighbour.entries), cfg().Entries, &tb.entries[0] == &neighbour.entries[0])
	}
	if tb.shared != neighbour.shared {
		t.Error("the tables of one set do not share their in-memory table")
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Entries: 0, Assoc: 2, Banks: 4, K: 2},
		{Entries: 16, Assoc: 0, Banks: 4, K: 2},
		{Entries: 16, Assoc: 2, Banks: 0, K: 2},
		{Entries: 16, Assoc: 2, Banks: 4, K: 0},
		{Entries: 15, Assoc: 2, Banks: 4, K: 2},
		{Entries: 16, Assoc: 2, Banks: MaxBanks + 1, K: 2}, // more banks than the header stamps
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, c)
		}
	}
}

func TestTwoOperandMatch(t *testing.T) {
	tb := New(cfg(), insts)
	out, e := tb.Insert(tok(5, 0, 0, 0, 11), 5, 0b011, 0, 10)
	if out != Stored || e == nil || e.Complete() {
		t.Fatalf("first operand: out=%v", out)
	}
	if tb.Live() != 1 {
		t.Fatalf("live = %d, want 1", tb.Live())
	}
	out, e = tb.Insert(tok(5, 0, 0, 1, 22), 5, 0b011, 1, 10)
	if out != Completed {
		t.Fatalf("second operand: out=%v, want Completed", out)
	}
	if e.Vals[0] != 11 || e.Vals[1] != 22 {
		t.Errorf("vals = %v, want [11 22 0]", e.Vals)
	}
	if tb.Live() != 0 {
		t.Errorf("live = %d after completion, want 0", tb.Live())
	}
	if s := tb.Stats(); s.Matches != 1 || s.Inserts != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDifferentWavesDoNotAlias(t *testing.T) {
	tb := New(cfg(), insts)
	tb.Insert(tok(5, 0, 0, 0, 1), 5, 0b011, 0, 10)
	out, _ := tb.Insert(tok(5, 0, 1, 1, 2), 5, 0b011, 1, 10)
	if out == Completed {
		t.Fatal("tokens from different waves must not match")
	}
	if tb.Live() != 2 {
		t.Errorf("live = %d, want 2 distinct instances", tb.Live())
	}
}

func TestDifferentThreadsDoNotAlias(t *testing.T) {
	tb := New(cfg(), insts)
	// Thread 1's instance of instruction 5 is bound under its own local
	// index; 13 hashes wave 0 to the same set as 5 does (8 sets, K = 2),
	// so only the tag keeps the two apart.
	if tb.set(5, isa.Tag{}) != tb.set(13, isa.Tag{Thread: 1}) {
		t.Fatal("test setup: indexes 5 and 13 should share a set")
	}
	tb.Insert(tok(5, 0, 0, 0, 1), 5, 0b011, 0, 10)
	out, _ := tb.Insert(tok(5, 1, 0, 1, 2), 13, 0b011, 1, 10)
	if out == Completed {
		t.Fatal("tokens from different threads must not match")
	}
}

func TestBankConflictRejects(t *testing.T) {
	tb := New(cfg(), insts)
	// Same instruction, same wave, different ports: same bank.
	out, _ := tb.Insert(tok(3, 0, 0, 0, 1), 3, 0b011, 7, 10)
	if out != Stored {
		t.Fatalf("first insert: %v", out)
	}
	out, _ = tb.Insert(tok(3, 0, 0, 1, 2), 3, 0b011, 7, 10)
	if out != RejectedBank {
		t.Fatalf("same-bank same-cycle insert should be RejectedBank, got %v", out)
	}
	if tb.Stats().BankRejects != 1 {
		t.Errorf("bank rejects = %d, want 1", tb.Stats().BankRejects)
	}
	// Next cycle it goes through and completes.
	out, _ = tb.Insert(tok(3, 0, 0, 1, 2), 3, 0b011, 8, 10)
	if out != Completed {
		t.Fatalf("retry should complete, got %v", out)
	}
}

func TestKLoopBounding(t *testing.T) {
	c := cfg() // K = 2
	tb := New(c, insts)
	// Three waves of the same instruction: the third must be rejected.
	for w := uint32(0); w < 2; w++ {
		if out, _ := tb.Insert(tok(1, 0, w, 0, 1), 1, 0b011, uint64(w), 10); out != Stored {
			t.Fatalf("wave %d: %v", w, out)
		}
	}
	if out, _ := tb.Insert(tok(1, 0, 2, 0, 1), 1, 0b011, 5, 10); out != Rejected {
		t.Fatalf("wave 2 should hit the k-bound, got %v", out)
	}
	if tb.Stats().KRejects != 1 {
		t.Errorf("k rejects = %d, want 1", tb.Stats().KRejects)
	}
	// A different thread is not throttled by this instruction's count. Its
	// instance of instruction 1 has a local index of its own (the package
	// contract); 9 hashes to the very sets index 1 uses, so the quota is
	// shown to be per (instruction, thread) and not per set.
	if tb.set(9, isa.Tag{Wave: 2}) != tb.set(1, isa.Tag{Wave: 2}) {
		t.Fatal("test setup: indexes 1 and 9 should share their sets")
	}
	if out, _ := tb.Insert(tok(1, 9, 2, 0, 1), 9, 0b011, 6, 10); out != Stored {
		t.Fatalf("other thread should be admitted, got %v", out)
	}
	// ...and it does not eat into thread 0's quota either: once a wave of
	// thread 0 drains, the next is admitted with thread 9's entry resident.
	tb.Release(tb.Lookup(1, 1, isa.Tag{Wave: 0}))
	if out, _ := tb.Insert(tok(1, 0, 2, 0, 1), 1, 0b011, 7, 10); out != Stored {
		t.Fatalf("wave 2 should be admitted after a release, got %v", out)
	}
}

// TestKBoundAdmitsOlderWave pins the displacement rule: at the bound, a
// token older than the youngest resident instance gets in by displacing it
// to the in-memory table, and the displaced instance is found there later.
func TestKBoundAdmitsOlderWave(t *testing.T) {
	tb := New(cfg(), insts)
	for _, w := range []uint32{1, 2} {
		if out, _ := tb.Insert(tok(3, 0, w, 0, uint64(w)), 3, 0b011, uint64(w), 10); out != Stored {
			t.Fatalf("wave %d: %v", w, out)
		}
	}
	if out, _ := tb.Insert(tok(3, 0, 0, 0, 7), 3, 0b011, 3, 10); out != Stored {
		t.Fatalf("older wave should displace the youngest, got %v", out)
	}
	if s := tb.Stats(); s.Evictions != 1 || s.KRejects != 0 || tb.OverflowSize() != 1 {
		t.Fatalf("stats = %+v, overflow = %d; want one eviction", s, tb.OverflowSize())
	}
	if tb.Lookup(3, 3, isa.Tag{Wave: 2}) != nil {
		t.Fatal("wave 2 (the youngest) should have been displaced")
	}
	// Wave 2's partner finds its instance in memory (a known instance is
	// never subject to the bound) and completes it at the miss penalty.
	out, e := tb.Insert(tok(3, 0, 2, 1, 9), 3, 0b011, 4, 10)
	if out != Completed || e.Vals != [3]uint64{2, 9, 0} || e.ReadyAt != 4+1+10 {
		t.Fatalf("displaced instance: out=%v entry=%+v", out, e)
	}
}

func TestOverflowEvictionAndRetrieval(t *testing.T) {
	// One set (entries=assoc) so every instance collides.
	tb := New(Config{Entries: 2, Assoc: 2, Banks: 1, K: 8}, insts)
	// Fill both ways with partial matches of insts 1, 2.
	tb.Insert(tok(1, 0, 0, 0, 1), 1, 0b011, 0, 10)
	tb.Insert(tok(2, 0, 0, 0, 2), 2, 0b011, 1, 10)
	// Inst 3 evicts the LRU (inst 1).
	tb.Insert(tok(3, 0, 0, 0, 3), 3, 0b011, 2, 10)
	if tb.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tb.Stats().Evictions)
	}
	if tb.OverflowSize() != 1 {
		t.Fatalf("overflow size = %d, want 1", tb.OverflowSize())
	}
	// The partner of inst 1 arrives: overflow hit, completes with penalty.
	out, e := tb.Insert(tok(1, 0, 0, 1, 11), 1, 0b011, 3, 10)
	if out != Completed {
		t.Fatalf("overflow retrieval should complete, got %v", out)
	}
	if e.Vals[0] != 1 || e.Vals[1] != 11 {
		t.Errorf("vals = %v", e.Vals)
	}
	if e.ReadyAt != 3+1+10 {
		t.Errorf("ReadyAt = %d, want %d (overflow penalty charged)", e.ReadyAt, 3+1+10)
	}
	if tb.Stats().OverflowHits != 1 {
		t.Errorf("overflow hits = %d, want 1", tb.Stats().OverflowHits)
	}
}

// TestSetOverflowKeysPerTable displaces the same (local index, wave) from
// two tables of one set into their shared in-memory table: each instance is
// kept under its own key, and each table fetches back its own partner.
func TestSetOverflowKeysPerTable(t *testing.T) {
	set := NewSet(Config{Entries: 2, Assoc: 2, Banks: 1, K: 8}, []int{insts, insts})
	for i := range set {
		tb := &set[i]
		v := uint64(100 * (i + 1))
		tb.Insert(tok(1, 0, 0, 0, v), 1, 0b011, 0, 10)
		tb.Insert(tok(2, 0, 0, 0, v), 2, 0b011, 1, 10)
		tb.Insert(tok(3, 0, 0, 0, v), 3, 0b011, 2, 10) // displaces index 1
		if tb.OverflowSize() != 1 {
			t.Fatalf("table %d: overflow size = %d, want 1", i, tb.OverflowSize())
		}
	}
	if n := len(set[0].shared.overflow); n != 2 {
		t.Fatalf("the set's in-memory table holds %d instances, want 2", n)
	}
	for i := range set {
		out, e := set[i].Insert(tok(1, 0, 0, 1, 7), 1, 0b011, 3, 10)
		if want := uint64(100 * (i + 1)); out != Completed || e.Vals[0] != want {
			t.Errorf("table %d: partner fetched back = (%v, %d), want (Completed, %d)", i, out, e.Vals[0], want)
		}
	}
	// Each fetch displaced its table's LRU entry, index 2, in turn.
	if n := len(set[0].shared.overflow); n != 2 || set[0].OverflowSize() != 1 || set[1].OverflowSize() != 1 {
		t.Errorf("the set's in-memory table holds %d instances, the tables count %d and %d; want 2, 1 and 1",
			n, set[0].OverflowSize(), set[1].OverflowSize())
	}
}

func TestLookupAndRelease(t *testing.T) {
	tb := New(cfg(), insts)
	tg := isa.Tag{Thread: 0, Wave: 4}
	tb.Insert(isa.Token{Tag: tg, Value: 9, Dest: isa.Target{Inst: 7, Port: 0}}, 7, 0b011, 0, 10)
	e := tb.Lookup(7, 7, tg)
	if e == nil || e.Vals[0] != 9 {
		t.Fatalf("lookup failed: %+v", e)
	}
	tb.Release(e)
	if tb.Live() != 0 {
		t.Errorf("live = %d after release", tb.Live())
	}
	if tb.Lookup(7, 7, tg) != nil {
		t.Error("released entry still visible")
	}
}

func TestHashSpreadsWaves(t *testing.T) {
	c := Config{Entries: 32, Assoc: 2, Banks: 4, K: 4}
	tb := New(c, insts)
	// The paper's hash I*k + (w mod k): consecutive waves of one
	// instruction land in k distinct sets.
	seen := map[int]bool{}
	for w := uint32(0); w < 8; w++ {
		seen[tb.set(3, isa.Tag{Wave: w})] = true
	}
	if len(seen) != c.K {
		t.Errorf("consecutive waves spread over %d sets, want %d", len(seen), c.K)
	}
}

// Property: inserting both operands of random instances (no conflicts in
// cycle) either completes exactly once per instance or is rejected by a
// deterministic bound — and live never goes negative.
func TestInsertCompleteInvariant(t *testing.T) {
	f := func(instRaw uint8, wave uint8, a, b uint64) bool {
		tb := New(Config{Entries: 64, Assoc: 2, Banks: 4, K: 64}, insts)
		inst := isa.InstID(instRaw % 32)
		w := uint32(wave)
		o1, _ := tb.Insert(tok(inst, 0, w, 0, a), int(inst), 0b011, 0, 5)
		o2, e := tb.Insert(tok(inst, 0, w, 1, b), int(inst), 0b011, 1, 5)
		if o1 != Stored || o2 != Completed {
			return false
		}
		return e.Vals[0] == a && e.Vals[1] == b && tb.Live() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThreeInputInstruction(t *testing.T) {
	tb := New(cfg(), insts)
	tb.Insert(tok(4, 0, 0, 0, 1), 4, 0b111, 0, 10)
	tb.Insert(tok(4, 0, 0, 1, 2), 4, 0b111, 1, 10)
	out, e := tb.Insert(tok(4, 0, 0, 2, 1), 4, 0b111, 2, 10)
	if out != Completed {
		t.Fatalf("three-input instance should complete, got %v", out)
	}
	if e.Vals != [3]uint64{1, 2, 1} {
		t.Errorf("vals = %v", e.Vals)
	}
}

// checkIndexState compares a table's per-local-index bookkeeping with what
// it summarizes: the live counter and youngest cache against a
// scanInstances walk of the physical sets, the overflow counter and wave
// range against the in-memory map. instOf maps a local index back to its (instruction,
// thread).
func checkIndexState(t *testing.T, step int, tb *Table, instOf func(li int) (isa.InstID, uint32)) {
	t.Helper()
	ovByIdx := make(map[int32]int32)
	for k, oe := range tb.shared.overflow {
		if k != tb.key(oe.LocalIdx, oe.Tag.Wave) {
			t.Fatalf("step %d: overflow key %#x holds index %d, wave %d", step, k, oe.LocalIdx, oe.Tag.Wave)
		}
		ovByIdx[oe.LocalIdx]++
		if st := &tb.idx[oe.LocalIdx]; oe.Tag.Wave < st.ovLo || oe.Tag.Wave > st.ovHi {
			t.Fatalf("step %d: index %d: displaced wave %d outside the lookup range %d..%d",
				step, oe.LocalIdx, oe.Tag.Wave, st.ovLo, st.ovHi)
		}
	}
	live := 0
	for li := range tb.idx {
		st := &tb.idx[li]
		inst, thread := instOf(li)
		count, young := tb.scanInstances(inst, li, thread)
		if int(st.live) != count {
			t.Fatalf("step %d: index %d: live counter %d, scan counts %d", step, li, st.live, count)
		}
		live += count
		if st.ov != ovByIdx[int32(li)] {
			t.Fatalf("step %d: index %d: overflow counter %d, map holds %d", step, li, st.ov, ovByIdx[int32(li)])
		}
		delete(ovByIdx, int32(li))
		if count == 0 {
			continue
		}
		if st.wave < young.Tag.Wave {
			t.Fatalf("step %d: index %d: wave bound %d below live wave %d", step, li, st.wave, young.Tag.Wave)
		}
		// A cache that validates must already name the scan's answer; one
		// that does not is rescanned, which the copy keeps out of tb.
		cached := *st
		if got := tb.youngest(&cached, inst, li, thread); got != young {
			t.Fatalf("step %d: index %d: youngest is wave %d, scan says %d", step, li, got.Tag.Wave, young.Tag.Wave)
		}
	}
	if len(ovByIdx) != 0 {
		t.Fatalf("step %d: overflow entries under unknown indexes: %v", step, ovByIdx)
	}
	if live != tb.Live() {
		t.Fatalf("step %d: Live() = %d, sets hold %d", step, tb.Live(), live)
	}
}

// checkDisplacements holds tb's per-index displacement counts to a step
// that began with per-index state idx and fetched an instance of index hit
// back from the in-memory table (-1 if none): each index's count moved by
// the number of its instances the step put in the in-memory table (what
// the index holds there now, less what it held, plus the one fetched
// back), and the counts sum to the evictions counted.
func checkDisplacements(t *testing.T, step int, tb *Table, idx []instState, hit int) {
	t.Helper()
	sum := uint64(0)
	for li := range tb.idx {
		_, _, _, _, n := tb.KBound(li)
		was, added := idx[li].moved, tb.idx[li].ov-idx[li].ov
		if li == hit {
			added++
		}
		if int32(n-was) != added {
			t.Fatalf("step %d: index %d: displacement count moved %d -> %d, %d of its instances newly displaced",
				step, li, was, n, added)
		}
		sum += uint64(n)
	}
	if ev := tb.Stats().Evictions; sum != ev {
		t.Fatalf("step %d: displacement counts sum to %d, %d evictions", step, sum, ev)
	}
}

// tableState is everything a refused Insert must leave alone, copied out
// of a table: the sets, the in-memory table, the counters, the bank stamps
// and the per-index state less the youngest cache (young and wave, which a
// k-reject may revalidate; waves holds the bounds apart).
type tableState struct {
	entries  []Entry // set by set
	overflow map[memKey]Entry
	idx      []instState
	waves    []uint32
	live     int
	stats    Stats
	bankUsed [MaxBanks]uint64
}

func stateOf(tb *Table) tableState {
	s := tableState{
		entries:  slices.Clone(tb.entries),
		overflow: maps.Clone(tb.shared.overflow),
		idx:      append([]instState(nil), tb.idx...),
		live:     tb.Live(),
		stats:    tb.Stats(),
		bankUsed: tb.bankUsed,
	}
	for i := range s.idx {
		s.waves = append(s.waves, s.idx[i].wave)
		s.idx[i].young, s.idx[i].wave = nil, 0
	}
	return s
}

// insertRuled asks the reject rule and then Inserts. When the rule is
// certain, Insert must return the outcome it named and leave the table as
// it was but for that outcome's one counter (the wave bound may tighten).
// It returns Insert's outcome and whether the rule had decided it.
func insertRuled(t *testing.T, tb *Table, tk isa.Token, li int, cycle uint64) (Outcome, bool) {
	t.Helper()
	wave := tk.Tag.Wave
	ruled, certain := tb.CertainReject(li, wave, tb.Bank(li, wave), cycle)
	if !certain {
		out, _ := tb.Insert(tk, li, 0b011, cycle, 5)
		return out, false
	}
	want := stateOf(tb)
	out, _ := tb.Insert(tk, li, 0b011, cycle, 5)
	switch {
	case out != ruled:
		t.Fatalf("index %d wave %d: rule was certain of outcome %d, Insert returned %d", li, wave, ruled, out)
	case out == Rejected:
		want.stats.KRejects++
	case out == RejectedBank:
		want.stats.BankRejects++
	default:
		t.Fatalf("index %d wave %d: rule was certain of outcome %d, which is not a refusal", li, wave, out)
	}
	got := stateOf(tb)
	for i, w := range got.waves {
		if w > want.waves[i] {
			t.Fatalf("index %d wave %d: refused Insert loosened index %d's wave bound %d to %d", li, wave, i, want.waves[i], w)
		}
	}
	if got.live != want.live || got.stats != want.stats || got.bankUsed != want.bankUsed ||
		!slices.Equal(got.idx, want.idx) || !slices.Equal(got.entries, want.entries) || !maps.Equal(got.overflow, want.overflow) {
		t.Fatalf("index %d wave %d: Insert refused (outcome %d) but changed the table:\n got %+v\nwant %+v", li, wave, out, got, want)
	}
	return out, true
}

// releaseFunc adapts a func to Releaser.
type releaseFunc func(localIdx int)

func (f releaseFunc) Released(localIdx int) { f(localIdx) }

// TestIndexStateMatchesScan drives random Insert / Release sequences
// through small tables (so set eviction, k-rejects,
// displacement of the youngest and overflow hits are all common) and checks
// after every step that the per-index counters, the youngest cache and the
// overflow counts say exactly what a scan of the sets and the map would.
// The release callback's index must be a bound one, and each index's
// displacement count must move by one for each of its instances newly in
// the in-memory table and sum, over the table, to the evictions counted
// (checkDisplacements).
//
// Every Insert goes through insertRuled, which holds the reject rule to
// what Insert then does; the rule must decide at least half of the walk's
// k-rejects (and some bank rejects), so it cannot rot into never being
// certain.
func TestIndexStateMatchesScan(t *testing.T) {
	const (
		threads = 2
		perThr  = 5
		nIdx    = threads * perThr
	)
	instOf := func(li int) (isa.InstID, uint32) { return isa.InstID(li % perThr), uint32(li / perThr) }
	shapes := []Config{
		{Entries: 8, Assoc: 2, Banks: 2, K: 2},
		{Entries: 4, Assoc: 1, Banks: 1, K: 3},
		{Entries: 6, Assoc: 3, Banks: 4, K: 4}, // K above the set count: the scan wraps
		{Entries: 16, Assoc: 2, Banks: 4, K: 1},
	}
	for si, c := range shapes {
		rng := rand.New(rand.NewSource(int64(si) + 1))
		tb := New(c, nIdx)
		tb.OnRelease = releaseFunc(func(li int) {
			if li < 0 || li >= len(tb.idx) {
				t.Fatalf("shape %d: release callback for index %d of %d", si, li, len(tb.idx))
			}
		})
		cycle := uint64(0)
		base := uint32(0) // waves wander upward so old and young tokens mix
		var kRejects, kCertain, bankCertain int
		for step := 0; step < 6000; step++ {
			idx, hits, hitIdx := slices.Clone(tb.idx), tb.Stats().OverflowHits, -1
			switch op := rng.Intn(19); {
			case op < 15:
				li := rng.Intn(nIdx)
				inst, thread := instOf(li)
				hitIdx = li
				wave := base + uint32(rng.Intn(6))
				if rng.Intn(3) > 0 {
					cycle++ // otherwise same cycle: bank conflicts
				}
				out, ruled := insertRuled(t, tb, tok(inst, thread, wave, isa.PortID(rng.Intn(2)), uint64(step)), li, cycle)
				switch {
				case out == Rejected:
					kRejects++
					if ruled {
						kCertain++
					}
				case ruled:
					bankCertain++
				}
			case op < 18:
				li := rng.Intn(nIdx)
				inst, thread := instOf(li)
				if e := tb.Lookup(inst, li, isa.Tag{Thread: thread, Wave: base + uint32(rng.Intn(6))}); e != nil {
					tb.Release(e)
				}
			default:
				base++
			}
			checkIndexState(t, step, tb, instOf)
			if tb.Stats().OverflowHits == hits {
				hitIdx = -1
			}
			checkDisplacements(t, step, tb, idx, hitIdx)
		}
		if s := tb.Stats(); s.KRejects == 0 && c.K < 4 {
			t.Errorf("shape %d: sequence never hit the k-bound (%+v)", si, s)
		}
		if 2*kCertain < kRejects || bankCertain == 0 {
			t.Errorf("shape %d: the rule decided %d of %d k-rejects and %d bank rejects", si, kCertain, kRejects, bankCertain)
		}
	}
}
