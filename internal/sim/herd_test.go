package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/match"
	"wavescalar/internal/trace"
)

// walkInput is the INPUT stage as it was before herds, kept as the oracle
// the herd structure is held to: one queue walked token by token, parked
// lists as plain token lists, and a release that moves a whole parked list
// to the reinject list for the next cycle's splice. Only the list and
// counter side of the stage is here; what an accepted token schedules is
// not.
type walkInput struct {
	mt            *match.Table
	rec           *trace.Recorder
	toks          tokPool
	inQ, reinject tokList
	parked        []tokList
	window, banks int
	penalty       uint64
	inputRejects  uint64
}

func (w *walkInput) Released(li int) {
	w.concat(&w.reinject, &w.parked[li])
}

// concat moves every node of src to the tail of dst and leaves src empty.
func (w *walkInput) concat(dst, src *tokList) {
	if src.empty() {
		return
	}
	if dst.empty() {
		*dst = *src
	} else {
		w.toks.nodes[dst.tail].next = src.head
		dst.tail = src.tail
		dst.n += src.n
	}
	*src = tokList{}
}

func (w *walkInput) insert(c uint64, tok isa.Token, li int, req uint8) match.Outcome {
	evBefore := w.mt.Stats().Evictions
	out, _ := w.mt.Insert(tok, li, req, c, w.penalty)
	if out == match.Stored || out == match.Completed {
		w.rec.MatchInsert(c, 0, 0, 0, int32(tok.Dest.Inst))
	}
	if d := w.mt.Stats().Evictions - evBefore; d > 0 {
		w.rec.MatchEvict(c, 0, 0, 0, int(d))
	}
	return out
}

func (w *walkInput) parkRun(c uint64, prev, i int32) (int32, uint64) {
	nodes := w.toks.nodes
	nd := &nodes[i]
	li, first, n := nd.li, i, int32(0)
	for {
		w.rec.PEStall(c, 0, 0, 0, trace.StallReject, 1)
		nd.readyAt, nd.sentAt = 0, 0
		n++
		next := nd.next
		if next == nilTok {
			break
		}
		nd = &nodes[next]
		if nd.li != li || nd.readyAt > c {
			break
		}
		if out, ok := w.mt.CertainReject(int(li), nd.tag.Wave, int(nd.bank), c); !ok || out != match.Rejected {
			break
		}
		i = next
	}
	after := nodes[i].next
	w.toks.moveRun(&w.parked[li], &w.inQ, prev, first, i, n)
	w.inputRejects += uint64(n)
	return after, uint64(n)
}

func (w *walkInput) acceptBypass(c uint64, nd tokNode) {
	switch w.insert(c, nd.token(), int(nd.li), nd.req) {
	case match.Rejected:
		nd.readyAt, nd.sentAt = 0, 0
		i := w.toks.get(nil)
		w.toks.nodes[i] = nd
		w.toks.pushBack(&w.parked[nd.li], i)
	case match.RejectedBank:
		nd.readyAt, nd.sentAt = c+1, 0
		i := w.toks.get(nil)
		w.toks.nodes[i] = nd
		w.toks.pushBack(&w.inQ, i)
	}
}

func (w *walkInput) phaseInput(c uint64) {
	if !w.reinject.empty() {
		w.concat(&w.reinject, &w.inQ)
		w.inQ, w.reinject = w.reinject, tokList{}
	}
	accepted := 0
	pos, prev := 0, nilTok
	var kCertain, bankCertain uint64
	for i := w.inQ.head; i != nilTok && accepted < w.banks; {
		if pos >= w.window && accepted > 0 {
			break
		}
		nd := &w.toks.nodes[i]
		next := nd.next
		if nd.readyAt > c {
			pos++
			prev, i = i, next
			continue
		}
		out, certain := w.mt.CertainReject(int(nd.li), nd.tag.Wave, int(nd.bank), c)
		if !certain {
			out = w.insert(c, nd.token(), int(nd.li), nd.req)
		}
		switch out {
		case match.Rejected:
			var n uint64
			i, n = w.parkRun(c, prev, i)
			if !certain {
				n--
			}
			kCertain += n
			continue
		case match.RejectedBank:
			if certain {
				bankCertain++
			}
			w.inputRejects++
			pos++
			prev, i = i, next
			continue
		}
		w.toks.unlink(&w.inQ, prev, i)
		accepted++
		w.toks.put(i)
		i = next
	}
	w.mt.CountRejects(kCertain, bankCertain)
}

// herdGeometry is one lockstep run's machine: the matching table's shape,
// the scan's window and how many local indexes the tokens are for.
type herdGeometry struct {
	k, banks, assoc, sets, window, insts int
}

func (g herdGeometry) String() string {
	return fmt.Sprintf("K=%d banks=%d assoc=%d sets=%d window=%d insts=%d",
		g.k, g.banks, g.assoc, g.sets, g.window, g.insts)
}

// herdPair is a PE running the herd structure and the walk it replaced,
// fed the same tokens.
type herdPair struct {
	g    herdGeometry
	pe   *peUnit
	w    *walkInput
	req  []uint8
	next uint64 // the next token's value, which names it
}

func newHerdPair(g herdGeometry, req []uint8) *herdPair {
	mcfg := match.Config{Entries: g.assoc * g.sets, Assoc: g.assoc, Banks: g.banks, K: g.k}
	cfg := Baseline(BaselineArch())
	cfg.K, cfg.MatchBanks, cfg.MatchAssoc, cfg.InputWindow = g.k, g.banks, g.assoc, g.window
	p := &Processor{
		cfg:         cfg,
		prog:        &isa.Program{Insts: make([]isa.Instruction, g.insts)},
		actInput:    newActiveSet(1),
		actDispatch: newActiveSet(1),
		actComplete: newActiveSet(1),
		actOutput:   newActiveSet(1),
		rec:         trace.New(trace.Options{Capacity: 1 << 16}),
	}
	p.rec.Bind(1, 1, 1)
	p.pes = []peUnit{{p: p, mt: match.New(mcfg, g.insts), parked: make([]herdList, g.insts)}}
	pe := &p.pes[0]
	pe.mt.OnRelease = pe
	w := &walkInput{
		mt: match.New(mcfg, g.insts), rec: trace.New(trace.Options{Capacity: 1 << 16}),
		parked: make([]tokList, g.insts), window: g.window, banks: g.banks,
		penalty: uint64(cfg.OverflowPenalty),
	}
	w.rec.Bind(1, 1, 1)
	w.mt.OnRelease = w
	return &herdPair{g: g, pe: pe, w: w, req: req, next: 1}
}

// arrive delivers one token to both PEs: into the input queue, ready at
// readyAt, or over the pod bypass when bypass is set.
func (hp *herdPair) arrive(c uint64, li int, wave uint32, port isa.PortID, readyAt uint64, bypass bool) {
	tok := isa.Token{Tag: isa.Tag{Wave: wave}, Value: hp.next, Dest: isa.Target{Inst: isa.InstID(li), Port: port}}
	hp.next++
	rt := route{li: int32(li), req: hp.req[li]}
	nd := tokNode{
		readyAt: readyAt, li: int32(li), tag: tok.Tag, inst: tok.Dest.Inst, port: port,
		req: rt.req, bank: uint8(hp.w.mt.Bank(li, wave)), value: tok.Value, sentAt: c,
	}
	if bypass {
		hp.pe.acceptBypass(c, tok, rt)
		hp.w.acceptBypass(c, nd)
		return
	}
	hp.pe.toks.pushBack(&hp.pe.inQ, hp.pe.newTok(readyAt, c, tok, rt))
	i := hp.w.toks.get(nil)
	hp.w.toks.nodes[i] = nd
	hp.w.toks.pushBack(&hp.w.inQ, i)
}

// tick runs one INPUT phase on both PEs.
func (hp *herdPair) tick(c uint64) {
	if hp.pe.inputPending() {
		hp.pe.phaseInput(c)
	}
	if !hp.w.inQ.empty() || !hp.w.reinject.empty() {
		hp.w.phaseInput(c)
	}
}

// values lists the tokens of a plain list in order.
func values(p *tokPool, l *tokList) []uint64 {
	var out []uint64
	for i := l.head; i != nilTok; i = p.nodes[i].next {
		out = append(out, p.nodes[i].value)
	}
	return out
}

// herdValues lists the tokens of a herd list in park order, checking each
// herd's invariants on the way: lanes ordered by sequence number, every
// wave inside its lane's bounds and on its bank's lane, counts that add up,
// and no number above the herd's top.
func herdValues(pe *peUnit, l *herdList) ([]uint64, error) {
	hp := &pe.p.herds
	var out []uint64
	total := int32(0)
	for h := l.head; h != nilHerd; h = hp.h[h].next {
		hd := &hp.h[h]
		n := int32(0)
		for b := range hd.lanes {
			ln := &hd.lanes[b]
			k, last, prev := int32(0), uint64(0), nilTok
			for i := ln.head; i != nilTok; i = pe.toks.nodes[i].next {
				nd := &pe.toks.nodes[i]
				switch {
				case nd.seq() <= last:
					return nil, fmt.Errorf("herd %d lane %d: sequence %d after %d", h, b, nd.seq(), last)
				case nd.seq() > hd.top:
					return nil, fmt.Errorf("herd %d lane %d: sequence %d above top %d", h, b, nd.seq(), hd.top)
				case nd.tag.Wave > ln.hi:
					return nil, fmt.Errorf("herd %d lane %d: wave %d above %d", h, b, nd.tag.Wave, ln.hi)
				case int(nd.bank) != b || nd.li != hd.li:
					return nil, fmt.Errorf("herd %d lane %d: token for index %d bank %d in a herd of index %d",
						h, b, nd.li, nd.bank, hd.li)
				}
				last, prev = nd.seq(), i
				k++
			}
			if k != ln.n || ln.tail != prev {
				return nil, fmt.Errorf("herd %d lane %d: %d tokens walked, n = %d", h, b, k, ln.n)
			}
			if err := checkRecords(pe.toks.nodes, ln); err != nil {
				return nil, fmt.Errorf("herd %d lane %d: %v", h, b, err)
			}
			n += k
		}
		if n != hd.n {
			return nil, fmt.Errorf("herd %d: %d tokens on its lanes, n = %d", h, n, hd.n)
		}
		total += n
		hp.forEach(&pe.toks, h, func(i int32) { out = append(out, pe.toks.nodes[i].value) })
	}
	if total != l.n {
		return nil, fmt.Errorf("herd list holds %d tokens, n = %d", total, l.n)
	}
	return out, nil
}

// checkRecords holds a lane's record queue to its definition: the tokens
// whose wave is below every later token's, in order, linked both ways.
func checkRecords(nodes []tokNode, ln *lane) error {
	var want []int32
	for i := ln.head; i != nilTok; i = nodes[i].next {
		for len(want) > 0 && nodes[want[len(want)-1]].tag.Wave >= nodes[i].tag.Wave {
			want = want[:len(want)-1]
		}
		want = append(want, i)
	}
	var got []int32
	prev := nilTok
	for r := ln.first; r != nilTok && len(got) <= len(want); {
		p, next := nodes[r].recs()
		if p != prev {
			return fmt.Errorf("record %d links back to %d, want %d", r, p, prev)
		}
		got = append(got, r)
		prev, r = r, next
	}
	if ln.n == 0 && ln.first == nilTok {
		return nil
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("records %v, want %v", got, want)
	}
	return nil
}

// compare checks every list and counter of the two PEs, and with events
// set their traces too.
func (hp *herdPair) compare(events bool) error {
	pe, w := hp.pe, hp.w
	q, err := herdValues(pe, &pe.hq)
	if err != nil {
		return fmt.Errorf("hq: %v", err)
	}
	q = append(q, values(&pe.toks, &pe.inQ)...)
	if want := values(&w.toks, &w.inQ); !slices.Equal(q, want) {
		return fmt.Errorf("input queue %v, want %v", q, want)
	}
	re, err := herdValues(pe, &pe.reinject)
	if err != nil {
		return fmt.Errorf("reinject: %v", err)
	}
	if want := values(&w.toks, &w.reinject); !slices.Equal(re, want) {
		return fmt.Errorf("reinject %v, want %v", re, want)
	}
	parked := 0
	for li := range pe.parked {
		got, err := herdValues(pe, &pe.parked[li])
		if err != nil {
			return fmt.Errorf("parked[%d]: %v", li, err)
		}
		if want := values(&w.toks, &w.parked[li]); !slices.Equal(got, want) {
			return fmt.Errorf("parked[%d] %v, want %v", li, got, want)
		}
		parked += len(got)
	}
	if parked != pe.parkedCount {
		return fmt.Errorf("parkedCount %d, %d tokens parked", pe.parkedCount, parked)
	}
	gs, ws := pe.mt.Stats(), w.mt.Stats()
	if gs != ws || pe.st.InputRejects != w.inputRejects {
		return fmt.Errorf("table %+v InputRejects %d, want %+v InputRejects %d", gs, pe.st.InputRejects, ws, w.inputRejects)
	}
	if !events {
		return nil
	}
	var ge, we []trace.Event
	pe.p.rec.Events(func(e trace.Event) { ge = append(ge, e) })
	w.rec.Events(func(e trace.Event) { we = append(we, e) })
	if !slices.Equal(ge, we) {
		return fmt.Errorf("%d trace events, want %d (or they differ)", len(ge), len(we))
	}
	return nil
}

// runHerdLockstep drives a herd pair through cycles cycles of token
// traffic drawn from rng and compares the pair after every cycle. Each
// local index gets two operand streams (one for a single-operand
// instruction), port 0 running ahead of port 1 as loop control runs ahead
// of data, so instances wait on partners, the k-bound fills and herds
// form; a wave now and then is held back and delivered late, which admits
// an old wave by displacing the youngest instance, and small sets evict
// partial matches to the in-memory table.
func runHerdLockstep(t testing.TB, g herdGeometry, rng *rand.Rand, cycles int) {
	req := make([]uint8, g.insts)
	for li := range req {
		req[li] = 0b011
		if rng.Intn(4) == 0 {
			req[li] = 0b001
		}
	}
	hp := newHerdPair(g, req)
	type stream struct {
		next uint32
		late []uint32
	}
	streams := make([][2]stream, g.insts)
	for li := range streams {
		streams[li][1].next = 0
		streams[li][0].next = uint32(rng.Intn(8)) // port 0 starts ahead
	}
	for c := uint64(0); c < uint64(cycles); c++ {
		for k := rng.Intn(4); k > 0 && hp.pe.inQ.n+hp.pe.hq.n+int32(hp.pe.parkedCount) < 400; k-- {
			li := rng.Intn(g.insts)
			port := isa.PortID(rng.Intn(2))
			if req[li] == 0b001 {
				port = 0
			}
			if port == 0 && streams[li][0].next > streams[li][1].next+24 && req[li] != 0b001 {
				port = 1 // keep the streams within reach of each other
			}
			s := &streams[li][port]
			var wave uint32
			switch {
			case len(s.late) > 0 && rng.Intn(3) == 0:
				wave, s.late = s.late[0], s.late[1:]
			case rng.Intn(10) == 0:
				s.late = append(s.late, s.next)
				s.next++
				continue
			default:
				wave = s.next
				s.next++
			}
			hp.arrive(c, li, wave, port, c+uint64(rng.Intn(3)), rng.Intn(5) == 0)
		}
		hp.tick(c)
		if err := hp.compare(c%64 == 63 || c == uint64(cycles)-1); err != nil {
			t.Fatalf("%v, cycle %d: %v", g, c, err)
		}
	}
}

// randomGeometry draws a geometry: K 1-8, 1-8 banks, associativity 1-4,
// 1-16 sets, a window of 1-64 and 1-4 local indexes.
func randomGeometry(rng *rand.Rand) herdGeometry {
	return herdGeometry{
		k: 1 + rng.Intn(8), banks: 1 + rng.Intn(match.MaxBanks), assoc: 1 + rng.Intn(4),
		sets: 1 + rng.Intn(16), window: 1 + rng.Intn(64), insts: 1 + rng.Intn(4),
	}
}

// TestHerdMatchesWalk holds the herd structure to the token-by-token walk
// it replaced, in lockstep over random geometries and token streams: after
// every cycle the input queue, the reinject list and every parked list
// hold the same tokens in the same order, and the reject counters and the
// trace events agree.
func TestHerdMatchesWalk(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runHerdLockstep(t, randomGeometry(rng), rng, 600)
	}
}

// FuzzHerdMatchesWalk is TestHerdMatchesWalk on fuzzed seeds.
func FuzzHerdMatchesWalk(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		runHerdLockstep(t, randomGeometry(rng), rng, 600)
	})
}
