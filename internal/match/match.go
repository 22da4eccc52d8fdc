// Package match implements a processing element's matching table: the
// specialized cache that performs dataflow input matching (Section 3.2).
//
// The table emulates a conceptually infinite matching store with a small
// physical structure. Entries are indexed by a hash of the instruction's
// local index and its wave number; the table is set-associative and banked
// so several tokens can arrive per cycle. When a set overflows, the oldest
// entry is evicted to an in-memory matching table; a later token that finds
// its partner there pays a retrieval penalty (a "matching-table miss").
// k-loop bounding caps how many dynamic instances of one static instruction
// (per thread) may occupy the table, providing the backpressure that keeps
// runaway loop-control tokens from flooding it; tokens from waves older
// than the youngest resident instance are always admitted (displacing it),
// so the oldest wave always makes progress.
//
// Every call that takes a localIdx relies on one contract: a local index
// identifies exactly one (instruction, thread) pair within the table's PE.
// The simulator gets this from the instruction store, which binds each
// thread's instance of an instruction under its own dense index. The
// k-bound is therefore kept as a live-instance counter per local index
// (plus a cached youngest instance), and the in-memory overflow area is
// keyed by (local index, wave) and counted per local index, so the common
// rejected or first-operand token costs a few loads rather than a K-set
// scan and a hash of its (instruction, tag). Two (instruction, thread)
// pairs sharing an index would share one k-quota. The tables of one NewSet
// share one in-memory area, keyed by the index's position in the set's
// per-index block, so it grows once per set rather than once per table.
//
// The same per-index state decides most refusals before the table is
// touched (CertainReject). A token whose arrival bank is free is certainly
// k-rejected when three facts hold for its local index: the index already
// has K live instances; the token's wave is above the recorded wave, which
// bounds every live wave of the index from above, so no set entry can be
// its partner and the youngest resident instance is no younger than it;
// and its instance was not displaced to the in-memory table, so there is
// no partner to fetch back either. Insert would then return Rejected
// having changed nothing but the KRejects counter.
package match

import (
	"fmt"

	"wavescalar/internal/isa"
)

// Config sizes a matching table.
type Config struct {
	Entries int // total entries (the paper's M)
	Assoc   int // set associativity (2 in the final design)
	Banks   int // banks for concurrent arrival (4 in the final design), at most MaxBanks
	K       int // k-loop bound and hash spread parameter
}

// MaxBanks bounds Config.Banks: a table keeps one cycle stamp per bank in
// its header, in a fixed array that fills one cache line. The design space
// uses two and four.
const MaxBanks = 8

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 || c.Banks <= 0 || c.K <= 0 {
		return fmt.Errorf("match: all config fields must be positive: %+v", c)
	}
	if c.Entries%c.Assoc != 0 {
		return fmt.Errorf("match: entries (%d) must be divisible by associativity (%d)", c.Entries, c.Assoc)
	}
	if c.Banks > MaxBanks {
		return fmt.Errorf("match: banks (%d) must be at most %d", c.Banks, MaxBanks)
	}
	return nil
}

// Entry is one matching-table row: a partially matched dynamic instruction
// instance. It is laid out to fill exactly one 64-byte cache line — the
// eight-byte fields first, the four byte-wide ones last — so the set probe
// every arriving token makes costs one line per way.
type Entry struct {
	Vals [3]uint64
	// ReadyAt is the earliest cycle the entry may be scheduled, pushed
	// back when an operand had to be fetched from the in-memory table.
	ReadyAt  uint64
	touched  uint64 // for LRU within the set
	Tag      isa.Tag
	Inst     isa.InstID
	LocalIdx int32 // instruction's index within its PE's store (hash input)
	Present  uint8
	Required uint8
	// AddrSent marks a store whose address half has already dispatched
	// (store decoupling).
	AddrSent bool
	valid    bool
}

// memKey names an instance in a set's in-memory table: its local index's
// position in the set (the table's base plus the index) above its wave.
// (The position stands for the table, the instruction and the thread.)
type memKey uint64

// key names the instance (localIdx, wave) of table t.
func (t *Table) key(localIdx int32, wave uint32) memKey {
	return memKey(t.base+localIdx)<<32 | memKey(wave)
}

// Complete reports whether all required operands are present.
func (e *Entry) Complete() bool { return e.Present == e.Required }

// Stats are the matching table's event counters.
type Stats struct {
	Inserts      uint64 // tokens written
	Matches      uint64 // entries completed
	Evictions    uint64 // entries displaced to the in-memory table
	OverflowHits uint64 // tokens that found their partner in the in-memory table
	KRejects     uint64 // tokens rejected by k-loop bounding
	BankRejects  uint64 // tokens rejected by bank conflicts
}

// instState is the per-local-index bookkeeping behind the k-bound and the
// overflow lookup.
type instState struct {
	// young caches the live instance with the highest wave. It is never
	// maintained on release, only revalidated on use: it is current iff the
	// entry it points at is still a live instance of this index at wave.
	young *Entry
	// wave bounds every live instance's wave from above, and is the
	// youngest's wave exactly whenever young validates.
	wave uint32
	live int32 // valid physical entries (what scanInstances would count)
	ov   int32 // instances displaced to the in-memory table
	// ovLo..ovHi covers the displaced instances' waves (it only widens
	// while ov > 0), so a token outside it needs no in-memory lookup.
	ovLo, ovHi uint32
	moved      uint32 // instances displaced so far (KBound)
}

// Table is one PE's matching table plus its share of the in-memory
// overflow area. The physical entries are taken from the set's block when
// the first token arrives: most PEs of a many-cluster machine running a
// few threads never see one, and a table that never does costs its header.
type Table struct {
	cfg     Config
	numSets int
	// entries is every set's ways back to back: set si is
	// entries[si*Assoc : (si+1)*Assoc]. Nil until the first token.
	entries []Entry
	// bankUsed is the cycle stamp per bank, for arrival limiting. It sits
	// in the header next to the fields every Insert reads first, so the
	// bank test follows no pointer.
	bankUsed [MaxBanks]uint64
	idx      []instState // per local index
	live     int
	stats    Stats

	// OnRelease, when set, is told the freed entry's local index whenever
	// an entry frees. Senders holding k-rejected tokens for that
	// (instruction, thread) use it to know the quota may have opened.
	OnRelease Releaser

	// shared is the set's entries block and in-memory table, read only on
	// a table's first token and on displacements, so it sits last.
	shared *shared
	base   int32 // the position of local index 0 in the set's per-index block
}

// Releaser is what a table's owner implements to hear of freed entries. It
// is an interface and not a func so that the owner's pointer is the whole
// value: a machine of hundreds of tables allocates no closure per table.
//
// Released is called once per freed entry, after the table's state for it
// is final.
type Releaser interface {
	Released(localIdx int)
}

// New creates a matching table for a PE with insts instructions bound
// (local indexes 0..insts-1).
func New(cfg Config, insts int) *Table {
	return &NewSet(cfg, []int{insts})[0]
}

// shared is what the tables of one NewSet hold in common: the block their
// physical entries are cut from and the one in-memory table.
type shared struct {
	block    []Entry          // what is left of the block tables take entries from
	overflow map[memKey]Entry // nil until the set's first displacement
}

// entriesBlock is how many tables' entries one block of a set holds. A
// machine wastes at most the unused end of one block.
const entriesBlock = 16

// NewSet creates one matching table per entry of insts, the i-th for a PE
// with insts[i] instructions bound. The tables and their per-index state
// come from three allocations however many tables there are; each table's
// share is cut to length. The tables' physical entries are cut from blocks
// of entriesBlock tables' worth as their first tokens arrive, and the
// tables share one in-memory table.
func NewSet(cfg Config, insts []int) []Table {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	total := 0
	for _, n := range insts {
		total += n
	}
	idx := make([]instState, total)
	tables := make([]Table, len(insts))
	sh := &shared{}
	base := 0
	for i, n := range insts {
		tables[i] = Table{cfg: cfg, numSets: cfg.Entries / cfg.Assoc, shared: sh, base: int32(base), idx: idx[:n:n]}
		idx = idx[n:]
		base += n
	}
	return tables
}

// NumSets returns the number of sets.
func (t *Table) NumSets() int { return t.numSets }

// ways returns set si, taking the physical entries from the set's block on
// first use. The read-only callers (Lookup, scanInstances) test for nil
// entries first, so reading a table no token has reached takes nothing.
func (t *Table) ways(si int) []Entry {
	if t.entries == nil {
		n, sh := t.cfg.Entries, t.shared
		if len(sh.block) < n {
			sh.block = make([]Entry, n*entriesBlock)
		}
		// The capacity ends at the table's share, as the per-index state's.
		t.entries, sh.block = sh.block[:n:n], sh.block[n:]
	}
	a := t.cfg.Assoc
	return t.entries[si*a : (si+1)*a]
}

// Stats returns a copy of the table's counters.
func (t *Table) Stats() Stats { return t.stats }

// Live returns the number of valid physical entries.
func (t *Table) Live() int { return t.live }

// set computes the set index for a dynamic instance: the paper's hash
// I*k + (w mod k), folded onto the physical sets.
func (t *Table) set(localIdx int, tag isa.Tag) int {
	k := t.cfg.K
	return (localIdx*k + int(tag.Wave)%k) % t.numSets
}

// Bank returns the arrival bank a token of the given wave addressed to
// localIdx contends for: sets interleave across the banks. It depends only
// on the index, the wave and the table's geometry, so a sender can compute
// it once however often the token is re-offered.
func (t *Table) Bank(localIdx int, wave uint32) int {
	return t.set(localIdx, isa.Tag{Wave: wave}) % t.cfg.Banks
}

// Outcome describes what happened to an inserted token.
type Outcome int

const (
	// Rejected means the token was refused by k-loop bounding; nothing
	// changes until the matching table releases an entry, so the sender
	// may park the token until then.
	Rejected Outcome = iota
	// RejectedBank means the token lost a same-cycle bank conflict; a
	// retry next cycle can succeed.
	RejectedBank
	// Stored means the token was written and its instruction is still
	// waiting for more operands.
	Stored
	// Completed means the token completed its instance: the returned Entry
	// is ready for the scheduling queue and has been removed from the
	// table. It is the freed slot itself, valid only until the next Insert,
	// so the caller copies what it needs at once.
	Completed
)

// Insert delivers one token to the table at the given cycle.
//
// localIdx is the destination instruction's index within the PE's
// instruction store, required is its operand mask, and overflowPenalty is
// the extra latency charged when the partner entry must be fetched from
// the in-memory matching table.
//
// Insert enforces the per-cycle bank limit (one token per bank per cycle):
// a second token hashing to the same bank in one cycle is RejectedBank —
// not Rejected: nothing about the table has to change for a retry next
// cycle to succeed, so the sender keeps the token queued instead of parking
// it. The bank is tested first, and a bank reject changes only BankRejects.
func (t *Table) Insert(tok isa.Token, localIdx int, required uint8, cycle uint64, overflowPenalty uint64) (Outcome, *Entry) {
	si := t.set(localIdx, tok.Tag)
	bank := si % t.cfg.Banks // == t.Bank(localIdx, tok.Tag.Wave)
	if t.bankUsed[bank] == cycle+1 {
		t.stats.BankRejects++
		return RejectedBank, nil
	}
	set := t.ways(si)

	// Look for the instance in the physical set.
	var slot *Entry
	for w := range set {
		e := &set[w]
		if e.valid && e.Inst == tok.Dest.Inst && e.Tag == tok.Tag {
			slot = e
			break
		}
	}
	st := &t.idx[localIdx]
	readyAt := cycle + 1
	if slot == nil {
		// Check the in-memory overflow table: a hit there is a
		// matching-table miss (the partner was displaced earlier).
		if oe, ok := t.displaced(st, localIdx, tok.Tag.Wave); ok {
			t.stats.OverflowHits++
			delete(t.shared.overflow, t.key(int32(localIdx), tok.Tag.Wave))
			st.ov--
			slot = t.allocate(si)
			*slot = oe
			t.admit(st, slot)
			readyAt = cycle + 1 + overflowPenalty
		}
	}
	if slot == nil {
		// A fresh dynamic instance: k-loop bounding may refuse it. Tokens
		// from waves older than the youngest resident instance must be
		// admitted (displacing that instance to memory), or loop-control
		// tokens racing ahead would deadlock the pipeline: the bound
		// throttles young waves, never the oldest.
		if int(st.live) >= t.cfg.K {
			youngest := t.youngest(st, tok.Dest.Inst, localIdx, tok.Tag.Thread)
			if youngest.Tag.Wave <= tok.Tag.Wave {
				t.stats.KRejects++
				return Rejected, nil
			}
			t.displace(youngest)
		}
		slot = t.allocate(si)
		slot.Inst = tok.Dest.Inst
		slot.LocalIdx = int32(localIdx)
		slot.Tag = tok.Tag
		slot.Vals = [3]uint64{}
		slot.Present = 0
		slot.Required = required
		slot.AddrSent = false
		slot.ReadyAt = readyAt
		t.admit(st, slot)
	}

	t.bankUsed[bank] = cycle + 1
	t.stats.Inserts++
	slot.Vals[tok.Dest.Port] = tok.Value
	slot.Present |= 1 << tok.Dest.Port
	slot.touched = cycle
	if slot.ReadyAt < readyAt {
		slot.ReadyAt = readyAt
	}
	if slot.Complete() {
		t.stats.Matches++
		t.release(slot)
		return Completed, slot
	}
	return Stored, slot
}

// CertainReject is the reject rule Insert implies, read from per-index
// state without touching the sets or the token. For a token of the given
// wave addressed to localIdx, arriving at bank (== t.Bank(localIdx, wave))
// in the given cycle, it reports whether Insert's outcome is already
// certain, and then which:
//
//   - RejectedBank iff the bank has taken a token this cycle;
//   - else Rejected iff the index has K live instances, wave is above the
//     bound on its live waves, and the instance is not displaced (see the
//     package comment).
//
// Insert would return the same outcome having moved only BankRejects or
// KRejects (and at most revalidated the youngest cache; skipping that
// leaves a looser bound, never a wrong one), so a caller may count the
// refusal with CountRejects instead of calling Insert. Anything else is not
// certain — it may still be refused — and must be offered to Insert.
func (t *Table) CertainReject(localIdx int, wave uint32, bank int, cycle uint64) (Outcome, bool) {
	if t.bankUsed[bank] == cycle+1 {
		return RejectedBank, true
	}
	if localIdx >= len(t.idx) {
		return Stored, false // bound after construction, nothing live yet
	}
	st := &t.idx[localIdx]
	if int(st.live) < t.cfg.K || wave <= st.wave {
		return Stored, false
	}
	if _, ok := t.displaced(st, localIdx, wave); ok {
		return Stored, false
	}
	return Rejected, true
}

// KBound returns the per-index state CertainReject's k-rule reads for
// localIdx: whether the index has K live instances, the bound on their
// waves, and a range that holds every displaced instance's wave (empty,
// lo above hi, when none is displaced). A token for the index arriving at
// a free bank is a certain k-reject iff the index is full, its wave is
// above the bound, and its instance is not displaced — which a wave
// outside the range settles without the in-memory table. moved counts the
// index's displacements since the table was built or drained (mod 2^32):
// a check made against the in-memory table holds while moved stands still.
func (t *Table) KBound(localIdx int) (full bool, bound, ovLo, ovHi, moved uint32) {
	if localIdx >= len(t.idx) {
		return false, 0, 1, 0, 0
	}
	st := &t.idx[localIdx]
	if st.ov == 0 {
		return int(st.live) >= t.cfg.K, st.wave, 1, 0, st.moved
	}
	return int(st.live) >= t.cfg.K, st.wave, st.ovLo, st.ovHi, st.moved
}

// displaced returns the in-memory table's entry for the instance
// (localIdx, wave), if it holds one. The map is consulted only when the
// index has something displaced and wave lies inside the displaced range.
func (t *Table) displaced(st *instState, localIdx int, wave uint32) (Entry, bool) {
	if st.ov == 0 || wave < st.ovLo || wave > st.ovHi {
		return Entry{}, false
	}
	e, ok := t.shared.overflow[t.key(int32(localIdx), wave)]
	return e, ok
}

// CountRejects adds k-loop and bank refusals a caller decided with
// CertainReject, so the counters read as if each had gone through Insert.
func (t *Table) CountRejects(k, bank uint64) {
	t.stats.KRejects += k
	t.stats.BankRejects += bank
}

// admit marks a filled slot live and counts it against its local index.
func (t *Table) admit(st *instState, e *Entry) {
	e.valid = true
	t.live++
	st.live++
	if st.live == 1 || e.Tag.Wave >= st.wave {
		st.young, st.wave = e, e.Tag.Wave
	}
}

// youngest returns the live instance of a local index with the highest
// wave; the index must have at least one. The cached answer stands while
// the entry it names is still that instance: admit moves the cache forward
// on every new highest wave, so only the youngest's own departure (rare in
// a loop, where the oldest wave finishes first) forces a rescan.
func (t *Table) youngest(st *instState, inst isa.InstID, localIdx int, thread uint32) *Entry {
	if y := st.young; y != nil && y.valid && int(y.LocalIdx) == localIdx && y.Tag.Wave == st.wave {
		return y
	}
	_, y := t.scanInstances(inst, localIdx, thread)
	st.young, st.wave = y, y.Tag.Wave
	return y
}

// scanInstances counts the live instances of (inst, thread) and finds the
// one with the highest wave. The hash confines an instruction's instances
// to K sets (one per wave residue), so the scan touches at most K*assoc
// entries. It runs only when the youngest cache has gone stale, and is the
// oracle the per-index counters are tested against.
func (t *Table) scanInstances(inst isa.InstID, localIdx int, thread uint32) (int, *Entry) {
	count := 0
	var youngest *Entry
	if t.entries == nil {
		return 0, nil
	}
	n := min(t.cfg.K, t.numSets)
	base := localIdx * t.cfg.K
	for r := 0; r < n; r++ {
		set := t.ways((base + r) % t.numSets)
		for w := range set {
			e := &set[w]
			if e.valid && e.Inst == inst && e.Tag.Thread == thread {
				count++
				if youngest == nil || e.Tag.Wave > youngest.Tag.Wave {
					youngest = e
				}
			}
		}
	}
	return count, youngest
}

// Lookup returns the live entry for (inst, tag), or nil. It checks only the
// physical table (used by the speculative-fire path and store decoupling).
func (t *Table) Lookup(inst isa.InstID, localIdx int, tag isa.Tag) *Entry {
	if t.entries == nil {
		return nil
	}
	set := t.ways(t.set(localIdx, tag))
	for w := range set {
		e := &set[w]
		if e.valid && e.Inst == inst && e.Tag == tag {
			return e
		}
	}
	return nil
}

// Release removes a live entry (after its instruction dispatched).
func (t *Table) Release(e *Entry) { t.release(e) }

func (t *Table) release(e *Entry) {
	if !e.valid {
		return
	}
	e.valid = false
	t.live--
	t.idx[e.LocalIdx].live--
	if t.OnRelease != nil {
		t.OnRelease.Released(int(e.LocalIdx))
	}
}

// displace moves a live entry to the in-memory table, records the instance
// in the index's displaced range and count, and frees its slot.
func (t *Table) displace(e *Entry) {
	sh := t.shared
	if sh.overflow == nil {
		sh.overflow = make(map[memKey]Entry)
	}
	sh.overflow[t.key(e.LocalIdx, e.Tag.Wave)] = *e
	st := &t.idx[e.LocalIdx]
	if w := e.Tag.Wave; st.ov == 0 {
		st.ovLo, st.ovHi = w, w
	} else {
		st.ovLo, st.ovHi = min(st.ovLo, w), max(st.ovHi, w)
	}
	st.ov++
	st.moved++
	t.stats.Evictions++
	t.release(e)
}

// allocate finds a free way in set si, evicting the LRU entry to the
// in-memory table if necessary. The returned slot has valid == false; the
// caller fills it and admits it.
func (t *Table) allocate(si int) *Entry {
	set := t.ways(si)
	var victim *Entry
	for w := range set {
		e := &set[w]
		if !e.valid {
			return e
		}
		if victim == nil || e.touched < victim.touched {
			victim = e
		}
	}
	// Evict the oldest partial match to the in-memory table.
	t.displace(victim)
	return victim
}

// OverflowSize returns how many of the table's partial matches live in the
// in-memory table (diagnostic).
func (t *Table) OverflowSize() int {
	n := 0
	for i := range t.idx {
		n += int(t.idx[i].ov)
	}
	return n
}

// Allocated reports whether the table holds its physical entries yet: it
// takes them when its first token arrives (diagnostic).
func (t *Table) Allocated() bool { return t.entries != nil }
