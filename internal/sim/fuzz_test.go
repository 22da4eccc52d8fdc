package sim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"wavescalar/internal/graph"
	"wavescalar/internal/isa"
	"wavescalar/internal/match"
	"wavescalar/internal/ref"
)

// randomProgram builds a random (but well-formed) dataflow loop kernel:
// a pool of values grows by random arithmetic over existing values, with
// random loads and stores over a small memory region, random selects, and
// a couple of accumulators carried across iterations.
func randomProgram(rng *rand.Rand) *isa.Program {
	b := graph.New("fuzz")
	n := b.Param("n")
	i0 := b.Const(n, 0)
	acc0 := b.Const(n, uint64(rng.Intn(100)))
	l := b.Loop(i0, acc0, b.Nop(n))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)

	pool := []graph.Value{i, acc, b.AndI(i, 15), b.AddI(i, 3)}
	pick := func() graph.Value { return pool[rng.Intn(len(pool))] }
	addrOf := func(v graph.Value) graph.Value {
		return b.AddI(b.ShlI(b.AndI(v, 31), 3), 0x1000)
	}

	ops := 4 + rng.Intn(12)
	for k := 0; k < ops; k++ {
		switch rng.Intn(8) {
		case 0:
			pool = append(pool, b.Add(pick(), pick()))
		case 1:
			pool = append(pool, b.Sub(pick(), pick()))
		case 2:
			pool = append(pool, b.Mul(pick(), b.AndI(pick(), 7)))
		case 3:
			pool = append(pool, b.Xor(pick(), pick()))
		case 4:
			pred := b.ULT(pick(), pick())
			pool = append(pool, b.Select(pred, pick(), pick()))
		case 5:
			pool = append(pool, b.Load(addrOf(pick())))
		case 6:
			b.Store(addrOf(pick()), pick())
		case 7:
			pred := b.AndI(pick(), 1)
			b.CondStore(pred, addrOf(pick()), pick())
		}
	}
	accN := b.Add(acc, b.AndI(pool[len(pool)-1], 0xFFFF))
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, accN, nn)
	b.Halt(out[1])
	return b.MustFinish()
}

// TestFuzzSimMatchesReference runs randomly generated kernels on both
// engines and requires identical halt values, memory images, and countable
// instruction counts — across several machine shapes.
func TestFuzzSimMatchesReference(t *testing.T) {
	shapes := []func() Config{
		func() Config { return Baseline(BaselineArch()) },
		func() Config {
			cfg := Baseline(BaselineArch())
			cfg.Arch.Domains = 1
			cfg.Arch.PEs = 2
			cfg.Arch.Virt = 16
			cfg.Arch.Match = 16
			cfg.K = 2
			return cfg
		},
		func() Config {
			cfg := Baseline(BaselineArch())
			cfg.Arch.Clusters = 4
			cfg.Arch.L2MB = 0
			cfg.PSQs = 0
			return cfg
		},
	}
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		p := randomProgram(rng)
		params := map[string]uint64{"n": uint64(5 + rng.Intn(20))}

		refMem := ref.Memory{}
		for a := uint64(0); a < 32; a++ {
			refMem[0x1000+a*8] = a * 3
		}
		res, err := ref.New(p, refMem).Run(0, params)
		if err != nil {
			t.Fatalf("trial %d: ref failed: %v\n(program has %d insts)", trial, err, p.NumStatic())
		}

		cfg := shapes[trial%len(shapes)]()
		cfg.StallLimit = 200_000
		simMem := Memory{}
		for a := uint64(0); a < 32; a++ {
			simMem[0x1000+a*8] = a * 3
		}
		proc, err := New(cfg, p, []map[string]uint64{params}, simMem)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		st, err := proc.Run()
		if err != nil {
			t.Fatalf("trial %d: sim failed: %v", trial, err)
		}
		if got, want := proc.HaltValue(0), res.HaltValue; got != want {
			t.Errorf("trial %d: halt sim=%d ref=%d", trial, got, want)
		}
		if st.Countable != res.Countable {
			t.Errorf("trial %d: countable sim=%d ref=%d", trial, st.Countable, res.Countable)
		}
		for a, v := range ref.Memory(refMem) {
			if proc.Mem()[a] != v {
				t.Errorf("trial %d: mem[%#x] sim=%d ref=%d", trial, a, proc.Mem()[a], v)
			}
		}
	}
}

// checkFifo holds a fifo of pointers against the plain-slice reference:
// the length, every position through peek, and — looking under the ring —
// that each slot outside the live window is nil, so a vacated slot keeps
// nothing reachable.
func checkFifo(t *testing.T, step int, q *fifo[*int], want []int) {
	t.Helper()
	if q.len() != len(want) || q.empty() != (len(want) == 0) {
		t.Fatalf("step %d: len = %d, empty = %v, want %d elements", step, q.len(), q.empty(), len(want))
	}
	for i, w := range want {
		if got := *q.peek(i); got == nil || *got != w {
			t.Fatalf("step %d: peek(%d) = %v, want %d", step, i, got, w)
		}
	}
	if n := len(q.buf); n&(n-1) != 0 {
		t.Fatalf("step %d: ring has %d slots, not a power of two", step, n)
	}
	for s, v := range q.buf {
		if live := (s-int(q.head))&(len(q.buf)-1) < q.len(); !live && v != nil {
			t.Fatalf("step %d: vacated slot %d (head %d, n %d) still holds %d", step, s, q.head, q.n, *v)
		}
	}
}

// FuzzFifoOps drives a fifo with an arbitrary operation stream and
// cross-checks every observation against a plain-slice reference, after
// every step. The scheduler's correctness rests on these queues preserving
// FIFO order through wrap-around, growth and mid-queue removal, so the
// ring gets an unbounded adversary in addition to the randomized tests in
// queue_test.go. The elements are pointers, so the check also proves that
// whatever leaves the queue leaves its slot zeroed. Run nightly with -fuzz
// (see .github/workflows/nightly.yml).
func FuzzFifoOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3})
	f.Add([]byte{2, 2, 2, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 3, 3, 3, 3, 2, 1})
	// The tail wraps past the last slot (head 4, seven elements in eight
	// slots), then the ring fills and grows while wrapped.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1})
	// remove shifts the front side across the seam (head 6, position 3)...
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 15, 1, 1})
	// ...and the back side across it (head 3, position 4 of seven).
	f.Add([]byte{0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 19, 1, 1, 1})
	// pushFront wraps the head below slot 0, then lands on a full ring.
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q fifo[*int]
		var fref []int
		next := 0
		fresh := func() *int { v := next; next++; return &v }
		for step, b := range ops {
			switch b % 4 {
			case 0: // push
				fref = append(fref, next)
				q.push(fresh())
			case 1: // popFront
				if len(fref) == 0 {
					continue
				}
				got, want := q.popFront(), fref[0]
				fref = fref[1:]
				if *got != want {
					t.Fatalf("step %d: popFront = %d, want %d", step, *got, want)
				}
			case 2: // pushFront
				fref = append([]int{next}, fref...)
				q.pushFront(fresh())
			case 3: // remove at a position derived from the opcode
				if len(fref) == 0 {
					continue
				}
				i := (int(b) / 4) % len(fref)
				got, want := q.remove(i), fref[i]
				fref = append(fref[:i], fref[i+1:]...)
				if *got != want {
					t.Fatalf("step %d: remove(%d) = %d, want %d", step, i, *got, want)
				}
			}
			checkFifo(t, step, &q, fref)
		}
	})
}

// tokListModel is the plain-slice reference FuzzTokListOps holds a PE's
// token lists against: the input queue (its released herds, then inQ), the
// reinject list and four parked lists, as slices of token ids in order.
type tokListModel struct {
	hq, inQ, reinject []uint64
	parked            [4][]uint64
}

// checkTokLists walks every list against the model — the herd lists
// through herdValues, which also checks each herd's lanes, records and
// counts — and then accounts for both pools: each node is on exactly one
// list or on the free list, and so is each herd.
func checkTokLists(t *testing.T, step int, pe *peUnit, m *tokListModel) {
	t.Helper()
	p := &pe.toks
	seen := make([]bool, len(p.nodes))
	claim := func(what string, i int32) {
		if i <= nilTok || int(i) >= len(p.nodes) {
			t.Fatalf("step %d: %s reaches node %d of %d", step, what, i, len(p.nodes))
		}
		if seen[i] {
			t.Fatalf("step %d: %s reaches node %d a second time", step, what, i)
		}
		seen[i] = true
	}
	if int(pe.inQ.n) != len(m.inQ) {
		t.Fatalf("step %d: inQ: n = %d, want %d tokens", step, pe.inQ.n, len(m.inQ))
	}
	k, prev := 0, nilTok
	for i := pe.inQ.head; i != nilTok; i = p.nodes[i].next {
		claim("inQ", i)
		if k >= len(m.inQ) || p.nodes[i].value != m.inQ[k] {
			t.Fatalf("step %d: inQ[%d] = token %d, want %v", step, k, p.nodes[i].value, m.inQ)
		}
		prev = i
		k++
	}
	if k != len(m.inQ) || pe.inQ.tail != prev {
		t.Fatalf("step %d: inQ walked %d of %d tokens, tail = %d, last = %d", step, k, len(m.inQ), pe.inQ.tail, prev)
	}
	hp := &pe.p.herds
	herdSeen := make([]bool, len(hp.h))
	herds := func(what string, l *herdList, want []uint64) {
		got, err := herdValues(pe, l)
		if err != nil {
			t.Fatalf("step %d: %s: %v", step, what, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: %s = %v, want %v", step, what, got, want)
		}
		for h := l.head; h != nilHerd; h = hp.h[h].next {
			if herdSeen[h] {
				t.Fatalf("step %d: %s reaches herd %d a second time", step, what, h)
			}
			herdSeen[h] = true
			for b := range hp.h[h].lanes {
				for i := hp.h[h].lanes[b].head; i != nilTok; i = p.nodes[i].next {
					claim(what, i)
				}
			}
		}
	}
	herds("hq", &pe.hq, m.hq)
	herds("reinject", &pe.reinject, m.reinject)
	parked := 0
	for li := range pe.parked {
		herds("parked", &pe.parked[li], m.parked[li])
		parked += len(m.parked[li])
	}
	if pe.parkedCount != parked {
		t.Fatalf("step %d: parkedCount = %d, want %d", step, pe.parkedCount, parked)
	}
	for i := p.free; i != nilTok; i = p.nodes[i].next {
		claim("free list", i)
	}
	for i := 1; i < len(seen); i++ {
		if !seen[i] {
			t.Fatalf("step %d: node %d is on no list and not free", step, i)
		}
	}
	for h := hp.free; h != nilHerd; h = hp.h[h].next {
		if herdSeen[h] {
			t.Fatalf("step %d: herd %d is free and on a list", step, h)
		}
		herdSeen[h] = true
	}
	for h := 1; h < len(herdSeen); h++ {
		if !herdSeen[h] {
			t.Fatalf("step %d: herd %d is on no list and not free", step, h)
		}
	}
}

// FuzzTokListOps drives one PE's token lists — the input queue with the
// released herds ahead of it, the reinject list and four parked lists,
// whose herds split their tokens into bank lanes — with an arbitrary
// stream of the INPUT stage's operations, through the stage's own methods,
// and cross-checks order, links, lanes, records, counts and the accounting
// of both pools against plain slices after every step. The token pool
// starts on a three-node slab so both the carved capacity and growth past
// it run.
func FuzzTokListOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 10, 3, 4, 1})
	f.Add([]byte{0, 0, 6, 14, 3, 11, 4, 0, 5, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 2, 10, 10, 3, 11, 4, 9, 17, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 103, 0, 0, 0, 71, 255, 19, 4, 39, 5})
	f.Add([]byte{6, 22, 38, 54, 70, 86, 3, 4, 9, 25, 10, 6, 22, 3, 4, 11, 12, 28, 13, 3, 4, 14})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const banks = 4
		p := &Processor{cfg: Config{MatchBanks: banks}, actInput: newActiveSet(1)}
		p.pes = []peUnit{{p: p, parked: make([]herdList, 4),
			mt: match.New(match.Config{Entries: 16, Assoc: 1, Banks: banks, K: 4}, 4)}}
		pe := &p.pes[0]
		slab := make([]tokNode, 4)
		pe.toks.nodes = slab[:1:4]
		var m tokListModel
		next := uint64(1)
		fresh := func(li int, wave uint32) int32 {
			i := pe.toks.get(&p.carve.toks)
			pe.toks.nodes[i] = tokNode{value: next, li: int32(li), tag: isa.Tag{Wave: wave}, bank: uint8(wave % banks)}
			next++
			return i
		}
		at := func(k int) int32 {
			i := pe.inQ.head
			for ; k > 0; k-- {
				i = pe.toks.nodes[i].next
			}
			return i
		}
		before := func(k int) int32 {
			if k == 0 {
				return nilTok
			}
			return at(k - 1)
		}
		// head lists the first released herd's tokens in park order.
		head := func() []lanedTok {
			var out []lanedTok
			h := pe.hq.head
			p.herds.forEach(&pe.toks, h, func(i int32) {
				nd := &pe.toks.nodes[i]
				out = append(out, lanedTok{nd.value, int(nd.bank), nd.seq()})
			})
			return out
		}
		for step, b := range ops {
			arg := int(b) / 16
			switch b % 16 {
			case 0: // a token arrives
				m.inQ = append(m.inQ, next)
				pe.toks.pushBack(&pe.inQ, fresh(arg%4, uint32(arg)))
			case 1: // the cursor's token is accepted: unlink and recycle
				if len(m.inQ) == 0 {
					continue
				}
				k := arg % len(m.inQ)
				i := at(k)
				pe.toks.unlink(&pe.inQ, before(k), i)
				pe.toks.put(i)
				m.inQ = slices.Delete(m.inQ, k, k+1)
			case 2, 7: // the cursor's token, or a run from it, is k-rejected and parks
				if len(m.inQ) == 0 {
					continue
				}
				k, n := arg%len(m.inQ), 1
				if b%16 == 7 {
					n += (arg / 4) % (len(m.inQ) - k)
				}
				for ; n > 0; n-- {
					i := at(k)
					li := pe.toks.nodes[i].li
					pe.toks.unlink(&pe.inQ, before(k), i)
					pe.park(i)
					m.parked[li] = append(m.parked[li], m.inQ[k])
					m.inQ = slices.Delete(m.inQ, k, k+1)
				}
			case 3: // the table releases an entry: the parked list queues to reinject
				li := arg % 4
				pe.Released(li)
				m.reinject = append(m.reinject, m.parked[li]...)
				m.parked[li] = nil
			case 4: // phaseInput's splice: reinject goes ahead of the queue
				p.herds.concat(&pe.reinject, &pe.hq)
				pe.hq, pe.reinject = pe.reinject, herdList{}
				m.hq = append(m.reinject, m.hq...)
				m.reinject = nil
			case 5: // the PE is mapped out: every list drains
				for i := pe.inQ.head; i != nilTok; {
					nx := pe.toks.nodes[i].next
					pe.toks.put(i)
					i = nx
				}
				pe.inQ = tokList{}
				for _, l := range []*herdList{&pe.hq, &pe.reinject, &pe.parked[0], &pe.parked[1], &pe.parked[2], &pe.parked[3]} {
					for h := l.head; h != nilHerd; {
						for b := range p.herds.h[h].lanes {
							for i := p.herds.h[h].lanes[b].head; i != nilTok; {
								nx := pe.toks.nodes[i].next
								pe.toks.put(i)
								i = nx
							}
						}
						nx := p.herds.h[h].next
						p.herds.put(h)
						h = nx
					}
					*l = herdList{}
				}
				pe.parkedCount = 0
				m = tokListModel{}
			case 6: // a bypassed token is k-rejected: parked without queueing
				li := arg % 4
				m.parked[li] = append(m.parked[li], next)
				pe.park(fresh(li, uint32(arg)))
			case 8, 9: // the first released herd's lanes in mask re-park below a number
				h := pe.hq.head
				if h == nilHerd {
					continue
				}
				toks := head()
				end := uint64(noSeq)
				if b%16 == 9 {
					end = toks[arg%len(toks)].seq
				}
				mask := uint8(1+arg) & (1<<banks - 1)
				li := p.herds.h[h].li
				var keep []lanedTok
				for _, x := range toks {
					if mask&(1<<x.b) != 0 && x.seq < end {
						m.parked[li] = append(m.parked[li], x.id)
					} else {
						keep = append(keep, x)
					}
				}
				pe.repark(0, h, mask, end)
				m.hq = append(ids(keep), m.hq[len(toks):]...)
				if p.herds.h[h].n == 0 {
					pe.hq.head = p.herds.h[h].next
					if pe.hq.head == nilHerd {
						pe.hq.tail = nilHerd
					}
					p.herds.put(h)
				}
			case 10: // the head of a lane of the first released herd is accepted
				h := pe.hq.head
				if h == nilHerd {
					continue
				}
				toks := head()
				x := toks[arg%len(toks)]
				ln := &p.herds.h[h].lanes[x.b]
				u := ln.head
				id := pe.toks.nodes[u].value
				pe.toks.unlink(&ln.tokList, nilTok, u)
				ln.trim(pe.toks.nodes)
				p.herds.h[h].n--
				pe.hq.n--
				pe.toks.put(u)
				k := slices.Index(m.hq, id)
				m.hq = slices.Delete(m.hq, k, k+1)
				if p.herds.h[h].n == 0 {
					pe.hq.head = p.herds.h[h].next
					if pe.hq.head == nilHerd {
						pe.hq.tail = nilHerd
					}
					p.herds.put(h)
				}
			case 12: // the first released herd parks whole
				h := pe.hq.head
				if h == nilHerd {
					continue
				}
				n := int(p.herds.h[h].n)
				li := p.herds.h[h].li
				pe.hq.head = p.herds.h[h].next
				if pe.hq.head == nilHerd {
					pe.hq.tail = nilHerd
				}
				pe.hq.n -= int32(n)
				pe.parkedCount += n
				pe.parkHerd(h)
				m.parked[li] = append(m.parked[li], m.hq[:n]...)
				m.hq = m.hq[n:]
			default:
				continue
			}
			checkTokLists(t, step, pe, &m)
		}
	})
}

// lanedTok is a released token as FuzzTokListOps's model reads it: its
// id, its lane and its sequence number.
type lanedTok struct {
	id  uint64
	b   int
	seq uint64
}

// ids lists the tokens' ids.
func ids(ts []lanedTok) []uint64 {
	out := make([]uint64, len(ts))
	for i, x := range ts {
		out[i] = x.id
	}
	return out
}

// FuzzPendingRing drives the ring of in-flight memory operations with an
// arbitrary stream of issues under sequential ids, completions in any
// order, re-issues (a completed operation issued again under a fresh id)
// and completions of ids
// the ring must not hold — ids already completed and ids never issued —
// and checks every answer against a plain map after every step. An id the
// ring does not hold is what cacheDone reports as ErrBadCompletion.
func FuzzPendingRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 3})
	f.Add([]byte{0, 0, 0, 0, 5, 9, 2, 2, 7, 11, 15})
	// Request 0 stays in flight while requests 1 to 16 come and go one at
	// a time, so the ring must grow around it with two operations held.
	f.Add(append(append([]byte{0, 0, 5}, bytes.Repeat([]byte{0, 5}, 15)...), 3, 7, 1))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r memRing
		held := make(map[uint64]pendingMemOp)
		var live, done []uint64 // held ids in issue order; completed ids
		seq := uint64(0)
		issue := func(op pendingMemOp) {
			r.put(seq, op)
			held[seq] = op
			live = append(live, seq)
			seq++
		}
		for step, b := range ops {
			arg := int(b) / 4
			switch b % 4 {
			case 0:
				issue(pendingMemOp{addr: seq, value: uint64(b)})
			case 1, 2: // complete a held id; 2 also re-issues it
				if len(live) == 0 {
					continue
				}
				k := arg % len(live)
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				got, ok := r.take(id)
				if !ok || got != held[id] {
					t.Fatalf("step %d: take(%d) = %+v, %v; want %+v", step, id, got, ok, held[id])
				}
				delete(held, id)
				done = append(done, id)
				if b%4 == 2 {
					got.issuedAt++
					issue(got)
				}
			case 3: // an id not held: completed already, or never issued
				id := seq + uint64(arg/2)
				if arg%2 == 0 && len(done) > 0 {
					id = done[(arg/2)%len(done)]
				}
				if got, ok := r.take(id); ok {
					t.Fatalf("step %d: take(%d) = %+v for an id not in flight", step, id, got)
				}
			}
			if r.len() != len(held) {
				t.Fatalf("step %d: ring holds %d operations, want %d", step, r.len(), len(held))
			}
			if n := len(r.slots); n&(n-1) != 0 {
				t.Fatalf("step %d: ring has %d slots, not a power of two", step, n)
			}
		}
		for _, id := range live {
			if got, ok := r.take(id); !ok || got != held[id] {
				t.Fatalf("drain: take(%d) = %+v, %v; want %+v", id, got, ok, held[id])
			}
		}
		if r.len() != 0 {
			t.Fatalf("drained ring still holds %d operations", r.len())
		}
	})
}

// FuzzActiveSetOps checks the work-list invariants — arm is idempotent,
// drain is sorted and complete, nothing armed is ever lost — under an
// arbitrary interleaving of arms and drains.
func FuzzActiveSetOps(f *testing.F) {
	f.Add([]byte{5, 3, 5, 255, 7})
	f.Add([]byte{255, 0, 0, 255, 255, 1, 255})
	f.Add([]byte{63, 64, 129, 0, 64, 255, 128, 127, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 130 // three bitmap words, the last one partial
		s := newActiveSet(n)
		armed := make(map[int32]bool)
		for step, b := range ops {
			if b == 255 { // drain
				got := s.drain()
				if len(got) != len(armed) {
					t.Fatalf("step %d: drain returned %d indices, want %d", step, len(got), len(armed))
				}
				for i, v := range got {
					if !armed[v] {
						t.Fatalf("step %d: drained %d which was never armed", step, v)
					}
					if i > 0 && got[i-1] >= v {
						t.Fatalf("step %d: drain not sorted/deduplicated: %v", step, got)
					}
				}
				armed = make(map[int32]bool)
				continue
			}
			i := int32(b) % n
			s.arm(i)
			armed[i] = true
		}
		got := s.drain()
		if len(got) != len(armed) {
			t.Fatalf("final drain returned %d indices, want %d", len(got), len(armed))
		}
	})
}
