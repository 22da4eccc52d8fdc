// Package noc implements WaveScalar's inter-cluster interconnect
// (Section 3.4.3): a grid of 6-port switches using dimension-order routing
// and two virtual channels to prevent deadlock (operand traffic on one,
// memory/coherence traffic on the other, following Dally & Seitz).
//
// Each switch has four ports to its cardinal neighbours, one port shared by
// the cluster's domains (the PE side), and one dedicated to the store
// buffer and L1 data cache (the memory side). Every output port carries up
// to Config.PortBW messages per cycle and buffers each virtual channel in
// an 8-entry output queue.
package noc

import (
	"errors"
	"fmt"
	"slices"

	"wavescalar/internal/trace"
)

// Structured anomaly errors. Impossible states (a message with a bad
// virtual channel, a route stepping off the grid) used to panic; they
// now latch an error on the Grid that the simulator surfaces through
// RunContext, so a fabric anomaly degrades the run instead of killing
// the process.
var (
	// ErrBadMessage marks a message that cannot legally enter the
	// network (bad VC or out-of-range endpoint).
	ErrBadMessage = errors.New("noc: bad message")
	// ErrOffGrid marks a routing step that left the grid — an internal
	// invariant violation, latched instead of panicking.
	ErrOffGrid = errors.New("noc: route off grid")
)

// VC identifiers: operands ride VC 0, memory and coherence traffic VC 1.
const (
	VCOperand = 0
	VCMemory  = 1
	numVCs    = 2
)

// Config sizes the network.
type Config struct {
	PortBW   int // messages per port per cycle (2 in the paper)
	QueueCap int // entries per VC output queue (8 in the paper)
	// Trace, when non-nil, records every delivery (with hop count and
	// latency) and feeds the per-link accounting.
	Trace *trace.Recorder
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PortBW <= 0 || c.QueueCap <= 0 {
		return fmt.Errorf("noc: PortBW and QueueCap must be positive: %+v", c)
	}
	return nil
}

// Message is one network flit-train (we model whole operands/requests as
// single messages).
type Message struct {
	Src, Dst int  // cluster indices
	ToMem    bool // deliver on the memory port (store buffer / L1 / directory)
	VC       int
	Payload  any
	Injected uint64
	Hops     int
}

// Sink receives delivered messages.
type Sink func(cycle uint64, port OutPort, m *Message)

// OutPort identifies a switch output.
type OutPort int

// Output port order (fixed, for determinism).
const (
	PortN OutPort = iota
	PortE
	PortS
	PortW
	PortPE  // to the cluster's domains
	PortMem // to the store buffer / L1 / directory
	numPorts
)

// Stats counts network events.
type Stats struct {
	Injected   uint64
	Delivered  uint64
	TotalHops  uint64
	TotalLat   uint64 // sum of delivery latencies in cycles
	InjectFull uint64 // failed injection attempts (source queue full)
	Blocked    uint64 // hop attempts blocked by a full downstream queue
}

// queue is one output port's per-VC buffer: a head-indexed slice with
// amortized O(1) pop that reuses its backing array, so steady-state
// traffic allocates nothing.
type queue struct {
	msgs []*Message
	head int
}

func (q *queue) len() int { return len(q.msgs) - q.head }

func (q *queue) push(m *Message) { q.msgs = append(q.msgs, m) }

func (q *queue) front() *Message { return q.msgs[q.head] }

func (q *queue) popFront() *Message {
	m := q.msgs[q.head]
	q.msgs[q.head] = nil
	q.head++
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.msgs) {
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs = q.msgs[:n]
		q.head = 0
	}
	return m
}

type sw struct {
	x, y int
	out  [numPorts][numVCs]queue
	// queued counts buffered messages across all ports/VCs; a switch with
	// none is skipped by Tick entirely.
	queued int
}

// Grid is the whole inter-cluster network.
type Grid struct {
	w, h  int
	cfg   Config
	sws   []*sw
	sink  Sink
	stats Stats
	// staging for the two-phase tick
	arrivals []arrival
	// Active-switch work list: only switches holding messages are visited
	// by Tick (ascending index order, matching the old full scan). armed
	// makes arming idempotent; actBuf is the sorted drain snapshot.
	active []int32
	armed  []bool
	actBuf []int32
	// staged[(sw*numPorts+port)*numVCs+vc] counts messages staged into a
	// destination queue this cycle (two-phase hop accounting); touched
	// lists the dirtied entries so the reset is O(work), and the flat
	// array replaces what was a per-cycle map allocation.
	staged  []int16
	touched []int32

	// err latches the first internal anomaly (bad message, off-grid
	// route); the owner polls Err() and aborts the run.
	err error
}

type arrival struct {
	sw   int
	port OutPort
	vc   int
	m    *Message
}

// New creates a w x h grid delivering messages to sink.
func New(w, h int, cfg Config, sink Sink) *Grid {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: bad grid %dx%d", w, h))
	}
	g := &Grid{w: w, h: h, cfg: cfg, sink: sink}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.sws = append(g.sws, &sw{x: x, y: y})
		}
	}
	g.armed = make([]bool, len(g.sws))
	g.staged = make([]int16, len(g.sws)*int(numPorts)*numVCs)
	return g
}

// arm registers a switch into the next Tick's work list (idempotent).
func (g *Grid) arm(si int) {
	if !g.armed[si] {
		g.armed[si] = true
		g.active = append(g.active, int32(si))
	}
}

// DimsFor returns the most-square power-of-two grid for n clusters:
// 1x1, 2x1, 2x2, 4x2, 4x4, 8x4, 8x8 for n = 1, 2, 4, 8, 16, 32, 64.
func DimsFor(n int) (w, h int) {
	w = 1
	for w*w < n {
		w *= 2
	}
	h = (n + w - 1) / w
	return w, h
}

// Stats returns the network counters.
func (g *Grid) Stats() Stats { return g.stats }

// Coord returns a cluster's grid coordinates.
func (g *Grid) Coord(cluster int) (x, y int) { return cluster % g.w, cluster / g.w }

// Distance returns the hop distance between two clusters.
func (g *Grid) Distance(a, b int) int {
	ax, ay := g.Coord(a)
	bx, by := g.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// route picks the output port at switch s for a message to dst by
// dimension-order routing.
func (g *Grid) route(s *sw, m *Message) OutPort {
	dx, dy := g.Coord(m.Dst)
	switch {
	case dx > s.x:
		return PortE
	case dx < s.x:
		return PortW
	case dy > s.y:
		return PortS
	case dy < s.y:
		return PortN
	}
	if m.ToMem {
		return PortMem
	}
	return PortPE
}

// fail latches the first internal anomaly for Err.
func (g *Grid) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// Err returns the first internal anomaly the network has latched, if
// any. The simulator polls it each cycle and aborts the run with a
// structured error instead of the old panic.
func (g *Grid) Err() error { return g.err }

// Send injects a message at its source cluster's switch. It returns false
// if the first-hop queue is full; the caller retries later. A malformed
// message (bad VC or endpoint) is refused and latches ErrBadMessage.
func (g *Grid) Send(cycle uint64, m *Message) bool {
	if m.VC < 0 || m.VC >= numVCs {
		g.fail(fmt.Errorf("%w: VC %d for %d->%d", ErrBadMessage, m.VC, m.Src, m.Dst))
		return false
	}
	if m.Src < 0 || m.Src >= len(g.sws) || m.Dst < 0 || m.Dst >= len(g.sws) {
		g.fail(fmt.Errorf("%w: endpoint %d->%d outside %dx%d grid", ErrBadMessage, m.Src, m.Dst, g.w, g.h))
		return false
	}
	s := g.sws[m.Src]
	q := &s.out[g.route(s, m)][m.VC]
	if q.len() >= g.cfg.QueueCap {
		g.stats.InjectFull++
		return false
	}
	m.Injected = cycle
	q.push(m)
	s.queued++
	g.arm(m.Src)
	g.stats.Injected++
	return true
}

// Tick advances the network one cycle: each output port forwards up to
// PortBW messages one hop (to the next switch's output queue, or to the
// sink on arrival). Two-phase so a message moves at most one hop per cycle.
//
// Only switches on the active list are visited, so an idle or
// lightly-loaded fabric costs O(messages in flight), not O(switches).
// The work list is snapshotted sorted ascending — the old full scan's
// visit order — and every switch still holding traffic re-arms, so the
// cycle-by-cycle behaviour (and therefore Stats) is byte-identical.
func (g *Grid) Tick(cycle uint64) {
	if len(g.active) == 0 {
		return
	}
	g.arrivals = g.arrivals[:0]
	g.actBuf = append(g.actBuf[:0], g.active...)
	g.active = g.active[:0]
	for _, si := range g.actBuf {
		g.armed[si] = false
	}
	slices.Sort(g.actBuf)

	for _, si32 := range g.actBuf {
		si := int(si32)
		s := g.sws[si]
		if s.queued == 0 {
			continue
		}
		for port := OutPort(0); port < numPorts; port++ {
			budget := g.cfg.PortBW
			// Round-robin the VCs starting from the cycle parity for
			// fairness while staying deterministic.
			for i := 0; i < numVCs && budget > 0; i++ {
				vc := (int(cycle) + i) % numVCs
				q := &s.out[port][vc]
				for budget > 0 && q.len() > 0 {
					m := q.front()
					if port == PortPE || port == PortMem {
						// Arrived: deliver to the cluster.
						g.deliver(cycle, port, m)
						q.popFront()
						s.queued--
						budget--
						continue
					}
					// Forward one hop.
					ni, ok := g.step(si, port)
					if !ok {
						g.fail(fmt.Errorf("%w: from switch %d via port %d", ErrOffGrid, si, port))
						q.popFront()
						s.queued--
						continue
					}
					ns := g.sws[ni]
					nport := g.route(ns, m)
					ref := (ni*int(numPorts)+int(nport))*numVCs + vc
					if ns.out[nport][vc].len()+int(g.staged[ref]) >= g.cfg.QueueCap {
						g.stats.Blocked++
						break // head-of-line blocked on this VC
					}
					if g.staged[ref] == 0 {
						g.touched = append(g.touched, int32(ref))
					}
					g.staged[ref]++
					m.Hops++
					g.arrivals = append(g.arrivals, arrival{sw: ni, port: nport, vc: vc, m: m})
					q.popFront()
					s.queued--
					budget--
				}
			}
		}
		if s.queued > 0 {
			g.arm(si)
		}
	}
	for _, a := range g.arrivals {
		ns := g.sws[a.sw]
		ns.out[a.port][a.vc].push(a.m)
		ns.queued++
		g.arm(a.sw)
	}
	for _, ref := range g.touched {
		g.staged[ref] = 0
	}
	g.touched = g.touched[:0]
}

func (g *Grid) deliver(cycle uint64, port OutPort, m *Message) {
	g.stats.Delivered++
	g.stats.TotalHops += uint64(m.Hops)
	g.stats.TotalLat += cycle - m.Injected + 1
	if g.cfg.Trace != nil {
		g.cfg.Trace.GridDeliver(cycle, m.Src, m.Dst, m.VC, m.Hops, cycle-m.Injected+1)
	}
	g.sink(cycle, port, m)
}

// step returns the switch index in the given direction, or ok=false
// when the step would leave the grid (an invariant violation on a
// correctly routed message; callers latch ErrOffGrid).
func (g *Grid) step(si int, port OutPort) (int, bool) {
	x, y := g.sws[si].x, g.sws[si].y
	switch port {
	case PortN:
		y--
	case PortS:
		y++
	case PortE:
		x++
	case PortW:
		x--
	}
	if x < 0 || x >= g.w || y < 0 || y >= g.h {
		return 0, false
	}
	return y*g.w + x, true
}

// Pending returns the number of messages currently buffered in the network
// (diagnostic; nonzero means traffic is still in flight).
func (g *Grid) Pending() int {
	n := 0
	for _, s := range g.sws {
		n += s.queued
	}
	return n
}
