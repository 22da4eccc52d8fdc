package sim

import (
	"wavescalar/internal/isa"
	"wavescalar/internal/noc"
	"wavescalar/internal/place"
	"wavescalar/internal/storebuf"
)

// netMsg is an operand travelling through the NET pseudo-PEs. sentAt is
// the producing execution's completion cycle (zero for memory responses,
// which are tracked separately).
type netMsg struct {
	readyAt uint64
	sentAt  uint64
	tok     isa.Token
	dst     place.PEAddr
}

// memQEntry is a memory request travelling through the MEM pseudo-PE.
type memQEntry struct {
	readyAt uint64
	req     *storebuf.Request
}

// domainUnit is a domain's shared infrastructure: the MEM and NET
// pseudo-PEs that gateway to the memory system and to other
// domains/clusters (Section 3.4.1). The broadcast buses themselves are
// modeled by direct, latency-stamped delivery from producer PEs.
type domainUnit struct {
	p       *Processor
	cluster int
	index   int
	gidx    int32 // index into Processor.domains, for the active-set work lists

	netOutQ fifo[netMsg]    // PE results leaving the domain
	netInQ  fifo[netMsg]    // operands entering the domain
	memQ    fifo[memQEntry] // memory requests toward the store buffer
}

// operandPayload is an operand crossing the inter-cluster network.
type operandPayload struct {
	tok    isa.Token
	dst    place.PEAddr
	sentAt uint64
}

// tick services the pseudo-PE queues: each moves one operand per cycle per
// direction (the paper's NET pseudo-PEs introduce a single operand per
// cycle into their domain).
func (d *domainUnit) tick(c uint64) {
	p := d.p
	// NET outbound: to a sibling domain or onto the grid.
	for n := 0; n < p.cfg.NetPEBW && !d.netOutQ.empty(); n++ {
		m := d.netOutQ.peek(0)
		if m.readyAt > c {
			break
		}
		if m.dst.Cluster == d.cluster {
			target := p.domain(d.cluster, m.dst.Domain)
			msg := d.netOutQ.popFront()
			msg.readyAt = c + 2 // crossbar link + via
			if p.rec != nil {
				p.rec.NetHop(c, d.cluster, d.index, d.cluster)
			}
			target.netInQ.push(msg)
			p.actDomain.arm(target.gidx)
			continue
		}
		pl := p.newPayload()
		*pl = operandPayload{tok: m.tok, dst: m.dst, sentAt: m.sentAt}
		gm := p.newMsg()
		*gm = noc.Message{Src: d.cluster, Dst: m.dst.Cluster, VC: noc.VCOperand, Payload: pl}
		ok := p.grid.Send(c, gm)
		if !ok {
			p.payFree = append(p.payFree, pl)
			p.msgFree = append(p.msgFree, gm)
			break // grid injection backpressure; retry next cycle
		}
		if p.rec != nil {
			p.rec.NetHop(c, d.cluster, d.index, m.dst.Cluster)
		}
		d.netOutQ.popFront()
	}
	// NET inbound: into the domain's PEs.
	for n := 0; n < p.cfg.NetPEBW && !d.netInQ.empty(); n++ {
		m := d.netInQ.peek(0)
		if m.readyAt > c {
			break
		}
		msg := d.netInQ.popFront()
		p.enqueueIn(p.routeOf(msg.tok.Tag.Thread, msg.tok.Dest.Inst), c+2, msg.sentAt, msg.tok)
	}
	// MEM: one request per cycle toward the owning store buffer.
	if !d.memQ.empty() && d.memQ.peek(0).readyAt <= c {
		m := d.memQ.peek(0)
		home := p.placement.Home(m.req.Tag.Thread)
		if home == d.cluster {
			e := d.memQ.popFront()
			p.sbs[d.cluster].Enqueue(c+1, *e.req)
			p.actSB.arm(int32(d.cluster))
			p.reqFree = append(p.reqFree, e.req)
		} else {
			gm := p.newMsg()
			*gm = noc.Message{Src: d.cluster, Dst: home, ToMem: true, VC: noc.VCMemory, Payload: m.req}
			if p.grid.Send(c, gm) {
				d.memQ.popFront()
			} else {
				p.msgFree = append(p.msgFree, gm)
			}
		}
	}
}

// busy reports whether the domain has queued work.
func (d *domainUnit) busy() bool {
	return !d.netOutQ.empty() || !d.netInQ.empty() || !d.memQ.empty()
}
