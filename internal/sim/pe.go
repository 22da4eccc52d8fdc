package sim

import (
	"math/bits"

	"wavescalar/internal/isa"
	"wavescalar/internal/istore"
	"wavescalar/internal/match"
	"wavescalar/internal/place"
	"wavescalar/internal/storebuf"
	"wavescalar/internal/trace"
)

// schedKind distinguishes ordinary fires from the two halves of a
// decoupled store.
type schedKind uint8

const (
	schedFire      schedKind = iota // all operands present
	schedStoreAddr                  // store address half (entry stays live)
)

// schedEntry is a ready instruction instance in the scheduling queue. The
// fields are ordered widest first, so the record has no padding inside.
type schedEntry struct {
	readyAt  uint64
	vals     [3]uint64
	tag      isa.Tag
	inst     isa.InstID
	kind     schedKind
	fast     bool // arrived via the pod bypass (speculative fire path)
	addrSent bool
}

// execResult is a completed execution waiting to route its result, to the
// instruction's destinations or, for a steer that chose its true side, to
// its DestsT (steer picks its side at dispatch).
type execResult struct {
	doneAt uint64
	value  uint64
	memReq *storebuf.Request
	tag    isa.Tag // output tag (wave already advanced for wadv)
	inst   isa.InstID
	steerT bool
}

// dests returns the consumers the result goes to; in is its instruction.
func (r *execResult) dests(in *isa.Instruction) []isa.Target {
	if r.steerT {
		return in.DestsT
	}
	return in.Dests
}

// outEntry is a result in the PE's output queue. Its remote destinations
// are the next ndests targets of the PE's outDests ring, which is pushed
// and popped in step with the queue.
type outEntry struct {
	readyAt uint64
	sentAt  uint64
	value   uint64
	memReq  *storebuf.Request
	tag     isa.Tag
	inst    isa.InstID
	ndests  int32
}

// peStats are the counters a PE's pipeline phases increment, kept on the
// PE itself and summed into Stats by collect. Every execution is one
// dispatch, so Dynamic counts both.
type peStats struct {
	Traffic         [numLevels][numClasses]uint64
	OperandLatTotal uint64
	OperandCount    uint64
	Dynamic         uint64
	Countable       uint64
	SpecFires       uint64
	OutQStalls      uint64
	InputRejects    uint64
}

// peUnit is one processing element's pipeline state.
type peUnit struct {
	p    *Processor
	addr place.PEAddr
	gidx int32 // index into Processor.pes, for the active-set work lists
	mt   *match.Table
	ist  *istore.Store

	schedQ   fifo[schedEntry]
	pending  fifo[execResult] // completion queue (FIFO; latencies are FIFO-ordered per PE)
	outQ     fifo[outEntry]
	outDests fifo[isa.Target] // outQ's remote destinations, entry by entry

	stallUntil uint64 // instruction-store miss fetch in progress

	// The INPUT stage: every token the PE holds is a node of toks on one
	// list. inQ is the input queue. parked[li] holds the tokens k-rejected
	// for local index li, in park order: in hardware the senders keep
	// retrying, but nothing can change until the matching table releases
	// an entry of the same instruction, so the model parks them. A parked
	// list is a list of herds (see herd), which split its tokens by bank.
	// The table's release callback moves the whole list to reinject, and
	// the next phaseInput moves reinject to the front of hq: the released
	// herds still queued ahead of inQ. parked is sized by the instruction
	// store's bound count; seq numbers parked tokens.
	toks        tokPool
	inQ         tokList
	hq          herdList
	reinject    herdList
	parked      []herdList
	parkedCount int
	seq         uint64

	// st is written by every phase but read only by collect, so it sits
	// behind the queues and lists the phases test first.
	st peStats
}

// Wake helpers arm the PE into a phase's work list; every push into the
// corresponding queue must be paired with one (idempotent, so over-arming
// is harmless but under-arming loses work).
func (pe *peUnit) wakeInput()    { pe.p.actInput.arm(pe.gidx) }
func (pe *peUnit) wakeDispatch() { pe.p.actDispatch.arm(pe.gidx) }
func (pe *peUnit) wakeComplete() { pe.p.actComplete.arm(pe.gidx) }
func (pe *peUnit) wakeOutput()   { pe.p.actOutput.arm(pe.gidx) }

// enqueueIn delivers a token to the input queue of the PE on its route.
func (p *Processor) enqueueIn(rt route, readyAt, sentAt uint64, tok isa.Token) {
	pe := &p.pes[rt.pe]
	pe.toks.pushBack(&pe.inQ, pe.newTok(readyAt, sentAt, tok, rt))
	pe.wakeInput()
}

// newTok takes a node from the pool for a token on route rt.
func (pe *peUnit) newTok(readyAt, sentAt uint64, tok isa.Token, rt route) int32 {
	i := pe.toks.get(&pe.p.carve.toks)
	pe.toks.nodes[i] = tokNode{
		readyAt: readyAt, li: rt.li,
		tag: tok.Tag, inst: tok.Dest.Inst, port: tok.Dest.Port,
		req: rt.req, bank: uint8(pe.mt.Bank(int(rt.li), tok.Tag.Wave)),
		value: tok.Value, sentAt: sentAt,
	}
	return i
}

// insert delivers a token to the matching table, recording the insert and
// any evictions it forced when tracing is enabled.
func (pe *peUnit) insert(c uint64, tok isa.Token, li int, req uint8) (match.Outcome, *match.Entry) {
	rec := pe.p.rec
	if rec == nil {
		return pe.mt.Insert(tok, li, req, c, uint64(pe.p.cfg.OverflowPenalty))
	}
	evBefore := pe.mt.Stats().Evictions
	out, e := pe.mt.Insert(tok, li, req, c, uint64(pe.p.cfg.OverflowPenalty))
	a := pe.addr
	if out == match.Stored || out == match.Completed {
		rec.MatchInsert(c, a.Cluster, a.Domain, a.PE, int32(tok.Dest.Inst))
	}
	if d := pe.mt.Stats().Evictions - evBefore; d > 0 {
		rec.MatchEvict(c, a.Cluster, a.Domain, a.PE, int(d))
	}
	return out, e
}

// parkRun shelves the k-rejected token at the input queue's node i until
// the quota can have opened, together with the run behind it: the tokens
// that follow for the same local index, are ready, find their bank free
// and are certainly k-rejected too (match.Table.CertainReject; nothing in
// the table changes inside a run, so each is judged as it would have been
// at the cursor). The run leaves inQ in one block and parks token by
// token. Every token of the run is one refused input attempt, counted and
// traced as such. prev is the node ahead of i (nilTok at the head). It
// returns the node after the run and the run's length.
func (pe *peUnit) parkRun(c uint64, prev, i int32) (int32, uint64) {
	nodes := pe.toks.nodes
	li, first, n := nodes[i].li, i, int32(1)
	for {
		next := nodes[i].next
		if next == nilTok {
			break
		}
		nd := &nodes[next]
		if nd.li != li || nd.readyAt > c {
			break
		}
		if out, ok := pe.mt.CertainReject(int(li), nd.tag.Wave, int(nd.bank), c); !ok || out != match.Rejected {
			break
		}
		i = next
		n++
	}
	after := nodes[i].next
	if prev != nilTok {
		nodes[prev].next = after
	} else {
		pe.inQ.head = after
	}
	if after == nilTok {
		pe.inQ.tail = prev
	}
	pe.inQ.n -= n
	for k := int32(0); k < n; k++ {
		next := nodes[first].next
		pe.park(first)
		first = next
	}
	pe.rejected(c, int(n))
	return after, uint64(n)
}

// park appends the unlinked node i to its index's parked list. A parked
// token comes back as the reinjection path always delivered it — ready at
// once, and with no delivery-latency sample — so the node's readyAt takes
// its sequence number (and its sentAt the lane's bookkeeping). The number
// is the PE's newest, above any a herd holds, so the token joins the
// list's last herd.
func (pe *peUnit) park(i int32) {
	hp := &pe.p.herds
	nd := &pe.toks.nodes[i]
	l := &pe.parked[nd.li]
	h := l.tail
	if h == nilHerd {
		h = hp.get(nd.li)
		hp.pushBack(l, h)
	}
	pe.seq++
	nd.readyAt = pe.seq
	pe.checkEpoch(h)
	hp.push(&pe.toks, h, i)
	l.n++
	pe.parkedCount++
}

// rejected counts n refused input attempts, each a k-reject stall event
// when tracing.
func (pe *peUnit) rejected(c uint64, n int) {
	pe.st.InputRejects += uint64(n)
	if rec := pe.p.rec; rec != nil {
		for ; n > 0; n-- {
			rec.PEStall(c, pe.addr.Cluster, pe.addr.Domain, pe.addr.PE, trace.StallReject, 1)
		}
	}
}

// Released is the matching table's release callback (match.Releaser): any
// tokens parked on the freed instruction queue up for reinjection, behind
// herds released earlier this cycle.
func (pe *peUnit) Released(li int) {
	l := &pe.parked[li]
	if l.empty() {
		return
	}
	pe.parkedCount -= int(l.n)
	pe.p.herds.concat(&pe.reinject, l)
	pe.wakeInput()
}

// inputPending reports whether phaseInput has anything to look at.
func (pe *peUnit) inputPending() bool {
	return !pe.inQ.empty() || !pe.hq.empty() || !pe.reinject.empty()
}

// busy reports whether the PE has any work in flight (idle PEs are skipped).
// Parked tokens do not make a PE busy on their own: they only move when the
// matching table frees an entry, which requires other activity first.
func (pe *peUnit) busy() bool {
	return pe.inputPending() || !pe.schedQ.empty() || !pe.pending.empty() || !pe.outQ.empty()
}

// idleParked reports tokens parked with no way to ever reinject (used by
// the drain/deadlock diagnostics).
func (pe *peUnit) idleParked() int { return pe.parkedCount }

// phaseComplete routes results whose execution finishes at cycle c:
// pod-local destinations go over the bypass network immediately; everything
// else enters the output queue.
func (pe *peUnit) phaseComplete(c uint64) {
	for !pe.pending.empty() {
		r := pe.pending.peek(0)
		if r.doneAt > c {
			break
		}
		if pe.outQ.len() >= pe.p.cfg.OutQCap {
			// Output queue full: execution backs up.
			pe.st.OutQStalls++
			if pe.p.rec != nil {
				pe.p.rec.PEStall(c, pe.addr.Cluster, pe.addr.Domain, pe.addr.PE, trace.StallOutQ, 1)
			}
			break
		}
		res := pe.pending.popFront()
		pe.deliver(c, res)
	}
}

// deliver fans a completed result out: pod-local consumers receive it over
// the bypass network now; remote destinations and memory requests go
// through the output queue.
func (pe *peUnit) deliver(c uint64, r execResult) {
	if r.memReq != nil {
		pe.outQ.push(outEntry{readyAt: c + 1, sentAt: c, inst: r.inst, tag: r.tag, memReq: r.memReq})
		pe.wakeOutput()
		return
	}
	remote := int32(0)
	for _, d := range r.dests(pe.p.prog.Inst(r.inst)) {
		rt := pe.p.routeOf(r.tag.Thread, d.Inst)
		// Pods are aligned PE pairs of one domain (Config.Validate), so two
		// PEs share one iff their indices do above the lowest bit.
		if rt.pe == pe.gidx || (pe.p.cfg.PodSize == 2 && rt.pe>>1 == pe.gidx>>1) {
			lvl := LevelPod
			if rt.pe == pe.gidx {
				lvl = LevelSelf
			}
			pe.st.Traffic[lvl][ClassOperand]++
			if pe.p.rec != nil {
				pe.p.rec.Message(c, int(lvl), trace.ClassOperand,
					pe.addr.Cluster, pe.addr.Domain, pe.addr.PE, pe.addr.Cluster)
			}
			pe.st.OperandLatTotal++ // bypass delivers in one cycle
			pe.st.OperandCount++
			// Bypass: available for dispatch this very cycle at the
			// destination (the speculative-fire path).
			tok := isa.Token{Tag: r.tag, Value: r.value, Dest: d}
			pe.p.pes[rt.pe].acceptBypass(c, tok, rt)
			continue
		}
		pe.outDests.push(d)
		remote++
	}
	if remote > 0 {
		pe.outQ.push(outEntry{
			readyAt: c + 1, sentAt: c, inst: r.inst, tag: r.tag, value: r.value, ndests: remote,
		})
		pe.wakeOutput()
	}
}

// acceptBypass inserts a bypassed token on route rt directly into the
// matching table; if it completes the instance, the entry is scheduled for
// this cycle (back-to-back execution) at the front of the queue.
func (pe *peUnit) acceptBypass(c uint64, tok isa.Token, rt route) {
	out, e := pe.insert(c, tok, int(rt.li), rt.req)
	switch out {
	case match.Rejected:
		pe.park(pe.newTok(0, 0, tok, rt))
	case match.RejectedBank:
		// Bank pressure: fall back to the ordinary input path.
		pe.toks.pushBack(&pe.inQ, pe.newTok(c+1, 0, tok, rt))
		pe.wakeInput()
	case match.Completed:
		ready := c
		if !pe.p.cfg.SpecFire {
			ready = c + 2 // no speculative scheduling: normal MATCH path
		}
		pe.schedQ.pushFront(schedEntry{
			readyAt: ready, inst: e.Inst, tag: e.Tag, vals: e.Vals,
			fast: pe.p.cfg.SpecFire, addrSent: e.AddrSent,
		})
		pe.wakeDispatch()
	case match.Stored:
		pe.maybeStoreAddrHalf(c, tok, e)
	}
}

// maybeStoreAddrHalf schedules the address half of a decoupled store when
// the address operand arrives first.
func (pe *peUnit) maybeStoreAddrHalf(c uint64, tok isa.Token, e *match.Entry) {
	in := pe.p.prog.Inst(tok.Dest.Inst)
	if in.Op != isa.OpStore || e == nil || e.AddrSent || e.Present != 0b001 {
		return
	}
	pe.schedQ.push(schedEntry{
		readyAt: e.ReadyAt + 1, inst: e.Inst, tag: e.Tag, vals: e.Vals,
		kind: schedStoreAddr,
	})
	pe.wakeDispatch()
}

// phaseDispatch issues at most one instruction instance per cycle.
func (pe *peUnit) phaseDispatch(c uint64) {
	if pe.stallUntil > c {
		return
	}
	if !pe.pending.empty() && pe.outQ.len() >= pe.p.cfg.OutQCap {
		return // execution is blocked; don't pile more on
	}
	const window = 8
	n := pe.schedQ.len()
	if n > window {
		n = window
	}
	for i := 0; i < n; i++ {
		se := pe.schedQ.peek(i)
		if se.readyAt > c {
			continue
		}
		entry := pe.schedQ.remove(i)
		pe.dispatch(c, entry)
		return
	}
}

// dispatch executes one scheduling-queue entry.
func (pe *peUnit) dispatch(c uint64, se schedEntry) {
	if se.kind == schedStoreAddr {
		// The entry may have completed (and fully dispatched) already.
		e := pe.mt.Lookup(se.inst, int(pe.p.routeOf(se.tag.Thread, se.inst).li), se.tag)
		if e == nil || e.AddrSent || e.Present != 0b001 {
			return
		}
		e.AddrSent = true
		pe.execute(c, se.inst, se.tag, [3]uint64{e.Vals[0], 0, 0}, schedStoreAddr, false)
		return
	}
	// Instruction store residency.
	if !pe.ist.Access(int(pe.p.routeOf(se.tag.Thread, se.inst).li)) {
		pe.stallUntil = c + uint64(pe.p.cfg.InstMissPenalty)
		se.readyAt = pe.stallUntil
		pe.schedQ.pushFront(se)
		pe.wakeDispatch()
		if pe.p.rec != nil {
			pe.p.rec.PEStall(c, pe.addr.Cluster, pe.addr.Domain, pe.addr.PE,
				trace.StallIStoreMiss, pe.p.cfg.InstMissPenalty)
		}
		return
	}
	pe.execute(c, se.inst, se.tag, se.vals, schedFire, se.addrSent)
	if se.fast && se.readyAt == c {
		pe.st.SpecFires++
	}
}

// execute models the EXECUTE stage: computes the result and queues its
// completion.
func (pe *peUnit) execute(c uint64, id isa.InstID, tag isa.Tag, vals [3]uint64, kind schedKind, addrSent bool) {
	p := pe.p
	in := p.prog.Inst(id)
	pe.st.Dynamic++
	if in.Op.Countable() && kind == schedFire {
		pe.st.Countable++
	}
	p.progress = c
	if p.rec != nil {
		p.rec.PEFire(c, pe.addr.Cluster, pe.addr.Domain, pe.addr.PE,
			int32(id), isa.ExecLatency(in.Op))
	}

	done := c + uint64(isa.ExecLatency(in.Op))

	switch in.Op {
	case isa.OpHalt:
		p.threadHalted(c, tag.Thread, vals[0])
		return
	case isa.OpSteer:
		pe.deliverAt(done, execResult{inst: id, tag: tag, value: vals[0], steerT: vals[2] != 0}, in)
		return
	case isa.OpWaveAdv:
		out := isa.Tag{Thread: tag.Thread, Wave: tag.Wave + 1}
		pe.deliverAt(done, execResult{inst: id, tag: out, value: vals[0]}, in)
		return
	case isa.OpLoad:
		req := p.newReq()
		*req = storebuf.Request{Kind: storebuf.ReqLoad, Inst: id, Tag: tag, Mem: *in.Mem, Addr: vals[0]}
		pe.queueMem(done, id, tag, req)
		return
	case isa.OpMemNop:
		req := p.newReq()
		*req = storebuf.Request{Kind: storebuf.ReqNop, Inst: id, Tag: tag, Mem: *in.Mem, Addr: vals[0]}
		pe.queueMem(done, id, tag, req)
		return
	case isa.OpStore:
		req := p.newReq()
		switch {
		case kind == schedStoreAddr:
			*req = storebuf.Request{Kind: storebuf.ReqStoreAddr, Inst: id, Tag: tag, Mem: *in.Mem, Addr: vals[0]}
		case addrSent:
			*req = storebuf.Request{Kind: storebuf.ReqStoreData, Inst: id, Tag: tag, Mem: *in.Mem, Data: vals[1]}
		default:
			*req = storebuf.Request{Kind: storebuf.ReqStoreFull, Inst: id, Tag: tag, Mem: *in.Mem,
				Addr: vals[0], Data: vals[1]}
		}
		pe.queueMem(done, id, tag, req)
		return
	}
	v := isa.Eval(in.Op, in.Imm, vals[0], vals[1], vals[2])
	pe.deliverAt(done, execResult{inst: id, tag: tag, value: v}, in)
}

// deliverAt queues a result of instruction in for completion-time routing,
// unless it has no consumers.
func (pe *peUnit) deliverAt(done uint64, r execResult, in *isa.Instruction) {
	if len(r.dests(in)) == 0 {
		return
	}
	r.doneAt = done
	pe.pending.push(r)
	pe.wakeComplete()
}

// queueMem queues a memory request for completion-time routing.
func (pe *peUnit) queueMem(done uint64, id isa.InstID, tag isa.Tag, req *storebuf.Request) {
	pe.pending.push(execResult{doneAt: done, inst: id, tag: tag, memReq: req})
	pe.wakeComplete()
}

// phaseOutput pops at most one output-queue entry and puts it on the
// intra-domain bus: same-domain consumers receive it directly; remote
// consumers are forwarded through the NET pseudo-PE; memory requests go to
// the MEM pseudo-PE.
func (pe *peUnit) phaseOutput(c uint64) {
	if pe.outQ.empty() || pe.outQ.peek(0).readyAt > c {
		return
	}
	e := pe.outQ.popFront()
	d := pe.p.domain(pe.addr.Cluster, pe.addr.Domain)
	if e.memReq != nil {
		lvl := LevelCluster
		home := pe.p.placement.Home(e.tag.Thread)
		if home != pe.addr.Cluster {
			lvl = LevelGrid
		}
		pe.st.Traffic[lvl][ClassMemory]++
		if pe.p.rec != nil {
			pe.p.rec.Message(c, int(lvl), trace.ClassMemory,
				pe.addr.Cluster, pe.addr.Domain, pe.addr.PE, home)
		}
		d.memQ.push(memQEntry{readyAt: c + 1, req: e.memReq})
		pe.p.actDomain.arm(d.gidx)
		return
	}
	for n := e.ndests; n > 0; n-- {
		t := pe.outDests.popFront()
		rt := pe.p.routeOf(e.tag.Thread, t.Inst)
		dst := pe.p.pes[rt.pe].addr
		tok := isa.Token{Tag: e.tag, Value: e.value, Dest: t}
		if dst.Cluster == pe.addr.Cluster && dst.Domain == pe.addr.Domain {
			pe.st.Traffic[LevelDomain][ClassOperand]++
			if pe.p.rec != nil {
				pe.p.rec.Message(c, trace.LevelDomain, trace.ClassOperand,
					pe.addr.Cluster, pe.addr.Domain, pe.addr.PE, dst.Cluster)
			}
			pe.p.enqueueIn(rt, c+1, e.sentAt, tok)
			continue
		}
		lvl := LevelCluster
		if dst.Cluster != pe.addr.Cluster {
			lvl = LevelGrid
		}
		pe.st.Traffic[lvl][ClassOperand]++
		if pe.p.rec != nil {
			pe.p.rec.Message(c, int(lvl), trace.ClassOperand,
				pe.addr.Cluster, pe.addr.Domain, pe.addr.PE, dst.Cluster)
		}
		d.netOutQ.push(netMsg{readyAt: c + 1, sentAt: e.sentAt, tok: tok, dst: dst})
		pe.p.actDomain.arm(d.gidx)
	}
}

// phaseInput accepts up to MatchBanks tokens per cycle from the input
// queue: first the released herds (hq), then inQ. It scans past blocked
// tokens (in hardware, rejected senders retry independently, which
// reorders arrivals): the scan stops at the window once something was
// accepted, but continues to the end of the queue while nothing has been,
// so a token that would unblock a k-bounded jam is always reachable. pos
// counts the tokens the cursor has stepped over, which is the queue
// position the window is measured in.
//
// Most attempts are refused, and most refusals are certain before the table
// is touched: the cursor asks the table's reject rule first and offers the
// token to Insert only when the rule cannot tell. Neither kind of refusal
// changes accepted and only a bank reject advances pos, so the two stop
// tests above cannot fire inside a run of k-rejects. A herd is settled a
// block of lanes at a time (settle) to the same outcome, token for token.
func (pe *peUnit) phaseInput(c uint64) {
	// Tokens released from parking re-enter at the front: they are the
	// oldest work and the quota just opened for them.
	hp := &pe.p.herds
	if !pe.reinject.empty() {
		hp.concat(&pe.reinject, &pe.hq)
		pe.hq, pe.reinject = pe.reinject, herdList{}
	}

	s := inputScan{window: pe.p.cfg.InputWindow, banks: pe.p.cfg.MatchBanks}
	var out settled
	for h, prevH := pe.hq.head, nilHerd; h != nilHerd && out != settleStop; {
		out = pe.settle(c, h, &s)
		next := hp.h[h].next
		if out != settleParked && hp.h[h].n > 0 {
			prevH, h = h, next
			continue
		}
		// Gone from the queue: unlink, and park whole or recycle.
		if prevH != nilHerd {
			hp.h[prevH].next = next
		} else {
			pe.hq.head = next
		}
		if next == nilHerd {
			pe.hq.tail = prevH
		}
		if n := hp.h[h].n; n > 0 {
			pe.hq.n -= n
			pe.parkedCount += int(n)
			pe.parkHerd(h)
		} else {
			hp.put(h)
		}
		h = next
	}
	if out != settleStop {
		pe.scanQueue(c, &s)
	}
	pe.mt.CountRejects(s.kCertain, s.bankCertain)
}

// inputScan is one phaseInput's cursor state.
type inputScan struct {
	accepted, pos         int
	window, banks         int
	kCertain, bankCertain uint64 // refusals decided without Insert
}

// done reports whether the scan stops before its next token.
func (s *inputScan) done() bool {
	return s.accepted >= s.banks || (s.pos >= s.window && s.accepted > 0)
}

// scanQueue walks inQ token by token; prev is the node ahead of the
// cursor, which the singly-linked queue needs to unlink it.
func (pe *peUnit) scanQueue(c uint64, s *inputScan) {
	prev := nilTok
	for i := pe.inQ.head; i != nilTok && !s.done(); {
		nd := &pe.toks.nodes[i]
		next := nd.next
		if nd.readyAt > c {
			s.pos++
			prev, i = i, next
			continue
		}
		var e *match.Entry
		out, certain := pe.mt.CertainReject(int(nd.li), nd.tag.Wave, int(nd.bank), c)
		if !certain {
			out, e = pe.insert(c, nd.token(), int(nd.li), nd.req)
		}
		switch out {
		case match.Rejected:
			// k-bound: park until the table frees an entry of this
			// instruction, and with the token the run of certain k-rejects
			// behind it.
			var n uint64
			i, n = pe.parkRun(c, prev, i)
			if !certain {
				n-- // Insert counted the run's head itself
			}
			s.kCertain += n
			continue
		case match.RejectedBank:
			// Lost the bank this cycle: the token stays queued, where a
			// retry next cycle can succeed.
			if certain {
				s.bankCertain++
			}
			pe.st.InputRejects++
			s.pos++
			prev, i = i, next
			continue
		}
		pe.toks.unlink(&pe.inQ, prev, i)
		if nd.sentAt > 0 {
			pe.st.OperandLatTotal += c - nd.sentAt
			pe.st.OperandCount++
		}
		pe.accept(c, out, nd.token(), e, s)
		pe.toks.put(i)
		i = next
	}
}

// accept schedules what an accepted token made ready.
func (pe *peUnit) accept(c uint64, out match.Outcome, tok isa.Token, e *match.Entry, s *inputScan) {
	s.accepted++
	switch out {
	case match.Completed:
		// Normal MATCH path: ready after the MATCH stage.
		pe.schedQ.push(schedEntry{
			readyAt: e.ReadyAt + 1, inst: e.Inst, tag: e.Tag, vals: e.Vals,
			addrSent: e.AddrSent,
		})
		pe.wakeDispatch()
	case match.Stored:
		pe.maybeStoreAddrHalf(c, tok, e)
	}
}

// settled is what became of a released herd the scan reached.
type settled uint8

const (
	settleQueued settled = iota // what is left of it stays queued
	settleStop                  // the scan stopped inside it
	settleParked                // every token parked: the herd parks whole
)

// settle runs the scan over released herd h and says where it left the
// herd. It reaches the outcome the token-by-token scan reaches, but a
// block at a time. Every token of a herd is ready and is for the herd's
// index, so between two calls to Insert — while neither the table nor its
// bank stamps change — a token's fate depends only on its lane: on a lane
// whose bank is taken this cycle it is a certain bank refusal and stays
// queued, advancing pos; on a free lane it is a certain k-refusal and
// parks, unless the reject rule cannot tell, and then it goes to Insert as
// the scan would offer it. So each block ends at the first of
//   - the window's cut, once something is accepted: the m-th token of the
//     taken lanes past the cursor, in park order, m being what the window
//     has left;
//   - the first token of a free lane that the rule cannot decide, which
//     is offered to Insert after the block; a lane the rule refuses whole
//     (lane.certain) holds none, and only the others are walked for it;
//
// and in the block the taken lanes' tokens stay and the free lanes' tokens
// park, each lane's share one run. A bank stays taken for the rest of the
// cycle, so the tokens the cursor has passed are all on taken lanes; at[b]
// is lane b's first token not passed, and past[b] how many were. A herd
// with no taken lane that the rule refuses whole parks as it is.
func (pe *peUnit) settle(c uint64, h int32, s *inputScan) settled {
	hp := &pe.p.herds
	nodes := pe.toks.nodes
	li := int(hp.h[h].li)
	var at, past [match.MaxBanks]int32
	var taken uint8
	for hp.h[h].n > 0 {
		if s.done() {
			return settleStop
		}
		hd := &hp.h[h]
		var free uint8
		held := int32(0) // tokens on the taken lanes past the cursor
		for b := 0; b < s.banks; b++ {
			ln := &hd.lanes[b]
			if taken&(1<<b) == 0 {
				if ln.n == 0 {
					continue
				}
				at[b] = ln.head
				if !pe.bankTaken(c, li, b, ln) {
					free |= 1 << b
					continue
				}
				taken |= 1 << b
			}
			held += ln.n - past[b]
		}
		end, cut := uint64(noSeq), false // the block is the tokens below end
		if m := int32(s.window - s.pos); s.accepted > 0 && held >= m {
			end, cut = hp.nthSeq(&pe.toks, &at, taken, m)+1, true
		}
		u, ub := nilTok, 0 // the undecided token that ends the block, and its lane
		if free != 0 {
			pe.checkEpoch(h)
			full, bound, ovLo, ovHi, _ := pe.mt.KBound(li)
			var sure uint8 // the free lanes the rule refuses whole
			for f := free; full && f != 0; f &= f - 1 {
				if b := bits.TrailingZeros8(f); hd.lanes[b].certain(nodes, bound, ovLo, ovHi) {
					sure |= 1 << b
				}
			}
			if taken == 0 && sure == free {
				// Every token is a certain k-reject: the herd parks as it is.
				s.kCertain += uint64(hd.n)
				pe.rejected(c, int(hd.n))
				return settleParked
			}
			for f := free &^ sure; f != 0; f &= f - 1 {
				b := bits.TrailingZeros8(f)
				ln := &hd.lanes[b]
				for i := ln.head; i != nilTok && nodes[i].seq() < end; i = nodes[i].next {
					w, sq := nodes[i].tag.Wave, nodes[i].seq()
					if !full || w > bound && (w < ovLo || w > ovHi || sq <= ln.okSeq) {
						if full {
							ln.okSeq = max(ln.okSeq, sq)
							continue
						}
					} else if out, ok := pe.mt.CertainReject(li, w, b, c); ok && out == match.Rejected {
						ln.okSeq = max(ln.okSeq, sq)
						continue
					}
					u, ub, end, cut = i, b, sq, false
					break
				}
			}
		}
		stay := hp.pass(&pe.toks, h, &at, &past, taken, end)
		s.pos += int(stay)
		s.bankCertain += uint64(stay)
		pe.st.InputRejects += uint64(stay)
		s.kCertain += uint64(pe.repark(c, h, free, end))
		if cut {
			return settleStop
		}
		if u == nilTok {
			return settleQueued // every token left is on a taken lane
		}
		// Offer the undecided token, now its lane's head, to the table. Its
		// bank is free, so the table cannot refuse it for the bank.
		tok := nodes[u].token()
		out, e := pe.insert(c, tok, li, nodes[u].req)
		switch out {
		case match.Rejected:
			pe.repark(c, h, 1<<ub, nodes[u].seq()+1)
		default:
			hd := &hp.h[h]
			ln := &hd.lanes[ub]
			pe.toks.unlink(&ln.tokList, nilTok, u)
			ln.trim(nodes)
			hd.n--
			pe.hq.n--
			pe.accept(c, out, tok, e, s)
			pe.toks.put(u)
		}
	}
	return settleQueued
}

// checkEpoch forgets herd h's checks against the in-memory table if its
// index has had an instance displaced since they were made, so that they
// hold at the index's current displacement count.
func (pe *peUnit) checkEpoch(h int32) {
	hd := &pe.p.herds.h[h]
	if _, _, _, _, moved := pe.mt.KBound(int(hd.li)); hd.okEp != moved {
		for b := range hd.lanes {
			hd.lanes[b].okSeq = 0
		}
		hd.okEp = moved
	}
}

// bankTaken reports whether bank b, the bank of the non-empty lane ln of a
// herd for index li, has taken a token in cycle c.
func (pe *peUnit) bankTaken(c uint64, li, b int, ln *lane) bool {
	out, _ := pe.mt.CertainReject(li, ln.lo, b, c)
	return out == match.RejectedBank
}

// parkHerd appends released herd h, unlinked, to its index's parked list:
// into the list's last herd when every number of h follows that herd's,
// and as a herd of its own otherwise.
func (pe *peUnit) parkHerd(h int32) {
	hp := &pe.p.herds
	src := &hp.h[h]
	l := &pe.parked[src.li]
	t := l.tail
	lo := uint64(noSeq)
	for b := range src.lanes[:pe.p.cfg.MatchBanks] {
		if ln := &src.lanes[b]; ln.n > 0 {
			lo = min(lo, pe.toks.nodes[ln.head].seq())
		}
	}
	if t == nilHerd || hp.h[t].top > lo {
		hp.pushBack(l, h)
		return
	}
	pe.checkEpoch(h)
	pe.checkEpoch(t)
	dst := &hp.h[t]
	for b := range src.lanes[:pe.p.cfg.MatchBanks] {
		if ln := &src.lanes[b]; ln.n > 0 {
			hp.moveLane(&pe.toks, &dst.lanes[b], ln, ln.tail, ln.n)
		}
	}
	dst.top = max(dst.top, src.top)
	dst.n += src.n
	l.n += src.n
	src.n = 0
	hp.put(h)
}

// repark moves the tokens of released herd h's lanes in mask whose sequence numbers
// are below end to the tail of the herd's parked list, each lane's share
// as one run, and counts and traces them as refused attempts. They join
// the list's last herd when they all follow it in park order, and form a
// new herd behind it otherwise. It returns how many moved.
func (pe *peUnit) repark(c uint64, h int32, mask uint8, end uint64) int32 {
	hp := &pe.p.herds
	nodes := pe.toks.nodes
	var last, cnt [match.MaxBanks]int32
	total, lo, hi := int32(0), uint64(noSeq), uint64(0)
	for f := mask; f != 0; f &= f - 1 {
		b := bits.TrailingZeros8(f)
		ln := &hp.h[h].lanes[b]
		if ln.n == 0 || nodes[ln.head].seq() >= end {
			continue
		}
		if nodes[ln.tail].seq() < end {
			last[b], cnt[b] = ln.tail, ln.n
		} else {
			i, n := ln.head, int32(1)
			for nodes[nodes[i].next].seq() < end {
				i = nodes[i].next
				n++
			}
			last[b], cnt[b] = i, n
		}
		total += cnt[b]
		lo = min(lo, nodes[ln.head].seq())
		hi = max(hi, nodes[last[b]].seq())
	}
	if total == 0 {
		return 0
	}
	li := hp.h[h].li
	l := &pe.parked[li]
	t := l.tail
	if t == nilHerd || hp.h[t].top > lo {
		t = hp.get(li)
		hp.pushBack(l, t)
	}
	pe.checkEpoch(h)
	pe.checkEpoch(t)
	src, dst := &hp.h[h], &hp.h[t]
	for f := mask; f != 0; f &= f - 1 {
		if b := bits.TrailingZeros8(f); cnt[b] > 0 {
			// Refused as certain k-rejects, the run's tokens are not
			// displaced.
			ln := &src.lanes[b]
			ln.okSeq = max(ln.okSeq, nodes[last[b]].seq())
			hp.moveLane(&pe.toks, &dst.lanes[b], ln, last[b], cnt[b])
		}
	}
	dst.top = max(dst.top, hi)
	src.n -= total
	pe.hq.n -= total
	dst.n += total
	l.n += total
	pe.parkedCount += int(total)
	pe.rejected(c, int(total))
	return total
}
