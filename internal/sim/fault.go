package sim

import (
	"errors"
	"fmt"

	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/noc"
	"wavescalar/internal/place"
	"wavescalar/internal/trace"
)

// FaultShape describes the machine a configuration builds to the fault
// package, so callers can validate a fault script against a design
// without constructing a Processor.
func FaultShape(cfg Config) fault.Shape {
	w, h := noc.DimsFor(cfg.Arch.Clusters)
	return fault.Shape{
		Clusters: cfg.Arch.Clusters, Domains: cfg.Arch.Domains,
		PEs: cfg.Arch.PEs, GridW: w, GridH: h,
	}
}

// Fault-path sentinel errors, matchable with errors.Is.
var (
	// ErrFaultStall means the machine stopped making progress because of
	// injected faults (dead tiles, a partitioned fabric, exhausted
	// retries) rather than a program deadlock. The wrapping error
	// carries the fault report.
	ErrFaultStall = errors.New("fault-induced stall")
	// ErrBadCompletion means the cache completed a memory request the
	// simulator was not tracking — an internal anomaly, surfaced as an
	// error instead of the old panic.
	ErrBadCompletion = errors.New("unknown memory completion")
	// ErrMemFault means a memory response was dropped more times than
	// the fault script's retry budget allows.
	ErrMemFault = errors.New("memory response lost after bounded retries")
	// ErrInternal wraps a recovered panic from the simulator core: the
	// run is lost but the process survives, with a cycle-stamped dump.
	ErrInternal = errors.New("internal simulator error")
)

// memRedo is a memory access awaiting re-issue (dropped response) or a
// held completion (delayed response).
type memRedo struct {
	at uint64
	pm pendingMemOp
}

// fatal latches the first fatal error; RunContext checks it every cycle.
// It exists because component callbacks (cache completion, grid sink)
// cannot return errors through their signatures.
func (p *Processor) fatal(err error) {
	if p.fatalErr == nil {
		p.fatalErr = err
	}
}

// faultShape describes this machine to the fault package.
func (p *Processor) faultShape() fault.Shape {
	w, h := p.grid.Dims()
	return fault.Shape{
		Clusters: p.cfg.Arch.Clusters, Domains: p.cfg.Arch.Domains,
		PEs: p.cfg.Arch.PEs, GridW: w, GridH: h,
	}
}

// faultsManifested reports whether any injected fault has actually
// occurred yet — the discriminator between ErrDeadlock (program bug)
// and ErrFaultStall (injected damage) in the watchdog.
func (p *Processor) faultsManifested() bool {
	return p.inj != nil && p.inj.Report() != (fault.Report{})
}

// applyFaults runs once per cycle when an injector is installed: it
// fires due scheduled events and services the memory retry/hold queues.
func (p *Processor) applyFaults(c uint64) {
	evs := p.inj.Due(c)
	if len(evs) > 0 {
		p.applyEvents(c, evs)
	}
	for !p.memRetryQ.empty() && p.memRetryQ.peek(0).at <= c {
		p.issueMem(c, p.memRetryQ.popFront().pm)
	}
	for !p.memHoldQ.empty() && p.memHoldQ.peek(0).at <= c {
		r := p.memHoldQ.popFront()
		p.finishMem(c, r.pm)
	}
}

// applyEvents fires scheduled hard faults: kills are batched (all PEs
// dying this cycle are marked dead before any re-placement) so one
// Remap pass moves every displaced binding to a PE that survives the
// whole batch.
func (p *Processor) applyEvents(c uint64, evs []fault.Event) {
	var newlyDead []place.PEAddr
	markDead := func(a place.PEAddr) {
		pe := p.pe(a)
		if pe.dead {
			return
		}
		pe.dead = true
		p.anyDead = true
		newlyDead = append(newlyDead, a)
	}
	for _, e := range evs {
		switch e.Kind {
		case fault.KindKillPE:
			markDead(place.PEAddr{Cluster: e.Cluster, Domain: e.Domain, PE: e.PE})
		case fault.KindKillDomain:
			for pi := 0; pi < p.cfg.Arch.PEs; pi++ {
				markDead(place.PEAddr{Cluster: e.Cluster, Domain: e.Domain, PE: pi})
			}
		case fault.KindKillCluster:
			for di := 0; di < p.cfg.Arch.Domains; di++ {
				for pi := 0; pi < p.cfg.Arch.PEs; pi++ {
					markDead(place.PEAddr{Cluster: e.Cluster, Domain: di, PE: pi})
				}
			}
		case fault.KindLinkDown:
			if err := p.grid.LinkDown(e.LinkA, e.LinkB); err != nil {
				p.fatal(fmt.Errorf("sim: fault script: %w", err))
				continue
			}
			p.inj.CountLinkDown()
			p.rec.Fault(c, trace.FaultLinkDown, e.LinkA, -1, 0, uint32(e.LinkB))
		}
	}
	if len(newlyDead) > 0 {
		p.killPEs(c, newlyDead)
	}
}

// killPEs maps the newly dead PEs out of the machine: their instruction
// bindings re-place onto survivors, and every piece of in-flight state
// they held (input tokens, parked tokens, partial matches, scheduled
// instances, unrouted results) migrates to the instructions' new homes,
// delayed by the remap penalty. Memory state is unaffected: store
// buffers, caches, and the NET/MEM pseudo-PEs are cluster infrastructure
// and survive compute-tile faults in this model.
func (p *Processor) killPEs(c uint64, dead []place.PEAddr) {
	p.inj.CountKill(len(dead))
	penalty := p.inj.RemapPenalty()
	readyAt := c + penalty

	// Re-place bindings off the dead tiles. The moved callback binds the
	// instruction at its new PE, rewriting its route, so local indices and
	// residency exist before any migrated state references them.
	migrated, err := p.placement.Remap(
		func(a place.PEAddr) bool { return p.pe(a).dead },
		func(thread uint32, inst isa.InstID, from, to place.PEAddr) {
			p.pe(to).bind(thread, inst)
		},
	)
	if err != nil {
		rep := p.inj.Report()
		p.fatal(fmt.Errorf("sim: %w at cycle %d: %v (fault report: %s)", ErrFaultStall, c, err, rep))
		return
	}

	toks := 0
	for _, a := range dead {
		pe := p.pe(a)
		toks += p.migratePE(c, readyAt, pe)
		p.rec.Fault(c, trace.FaultPEKill, a.Cluster, a.Domain, a.PE, uint32(pe.ist.Bound()))
	}
	p.inj.CountMigration(migrated, toks)
}

// migratePE drains one dead PE and re-delivers its state to the new
// hosts, returning how many tokens/entries moved.
func (p *Processor) migratePE(c, readyAt uint64, pe *peUnit) int {
	moved := 0
	sendTok := func(tok isa.Token) {
		p.enqueueIn(p.routeOf(tok.Tag.Thread, tok.Dest.Inst), readyAt, 0, tok)
		moved++
	}
	drain := func(l *tokList) {
		for i := l.head; i != nilTok; {
			nd := pe.toks.nodes[i]
			pe.toks.put(i)
			sendTok(nd.token())
			i = nd.next
		}
		*l = tokList{}
	}
	hp := &p.herds
	drainHerds := func(l *herdList) {
		for h := l.head; h != nilHerd; {
			hp.forEach(&pe.toks, h, func(i int32) { sendTok(pe.toks.nodes[i].token()) })
			for b := range hp.h[h].lanes {
				for i := hp.h[h].lanes[b].head; i != nilTok; {
					next := pe.toks.nodes[i].next
					pe.toks.put(i)
					i = next
				}
			}
			next := hp.h[h].next
			hp.put(h)
			h = next
		}
		*l = herdList{}
	}

	// Input queue (its released herds first), reinjection list, and parked
	// (k-rejected) tokens, the last in ascending local-index order so the
	// new hosts see one arrival order on every run.
	drainHerds(&pe.hq)
	drain(&pe.inQ)
	drainHerds(&pe.reinject)
	for li := range pe.parked {
		drainHerds(&pe.parked[li])
	}
	pe.parkedCount = 0

	// Partial matches (physical and overflow) adopt wholesale so
	// accumulated operands and store-decoupling state survive.
	for _, e := range pe.mt.DrainEntries() {
		rt := p.routeOf(e.Tag.Thread, e.Inst)
		p.pes[rt.pe].mt.Adopt(e, int(rt.li), readyAt)
		moved++
	}

	// Ready-to-dispatch instances re-queue at the new host.
	for !pe.schedQ.empty() {
		se := pe.schedQ.popFront()
		se.readyAt = readyAt
		se.fast = false
		npe := &p.pes[p.routeOf(se.tag.Thread, se.inst).pe]
		npe.schedQ.push(se)
		npe.wakeDispatch()
		moved++
	}

	// Completed-but-unrouted results and queued outputs follow the
	// producing instruction's new home (any surviving PE can fan them
	// out; using the instruction's host keeps it deterministic).
	for !pe.pending.empty() {
		r := pe.pending.popFront()
		r.doneAt = readyAt
		npe := &p.pes[p.routeOf(r.tag.Thread, r.inst).pe]
		npe.pending.push(r)
		npe.wakeComplete()
		moved++
	}
	for !pe.outQ.empty() {
		e := pe.outQ.popFront()
		e.readyAt = readyAt
		npe := &p.pes[p.routeOf(e.tag.Thread, e.inst).pe]
		for n := e.ndests; n > 0; n-- {
			npe.outDests.push(pe.outDests.popFront())
		}
		npe.outQ.push(e)
		npe.wakeOutput()
		moved++
	}
	pe.stallUntil = 0
	return moved
}
