package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"

	"wavescalar/internal/cache"
	"wavescalar/internal/isa"
	"wavescalar/internal/istore"
	"wavescalar/internal/match"
	"wavescalar/internal/noc"
	"wavescalar/internal/place"
	"wavescalar/internal/storebuf"
	"wavescalar/internal/trace"
)

// Sentinel run-failure errors, matchable with errors.Is. Run wraps them
// with the configuration limits and a machine-state dump.
var (
	// ErrMaxCycles means the run exceeded Config.MaxCycles.
	ErrMaxCycles = errors.New("exceeded MaxCycles")
	// ErrDeadlock means no instruction dispatched for Config.StallLimit
	// cycles: the machine made no forward progress.
	ErrDeadlock = errors.New("deadlock: no forward progress")
	// ErrNotQuiesced means in-flight state failed to drain after all
	// threads halted (a lost token or stuck queue).
	ErrNotQuiesced = errors.New("post-halt drain did not quiesce")
	// ErrAlreadyRun means Run or RunContext was called a second time. A
	// Processor runs one program once; the first run's Stats, memory and
	// halt values are left as they were.
	ErrAlreadyRun = errors.New("processor has already run")
	// ErrBadCompletion means the cache completed a memory request the
	// simulator was not tracking — an internal anomaly, surfaced as an
	// error instead of the old panic.
	ErrBadCompletion = errors.New("unknown memory completion")
	// ErrInternal wraps a recovered panic from the simulator core: the
	// run is lost but the process survives, with a cycle-stamped dump.
	ErrInternal = errors.New("internal simulator error")
)

// Memory is the simulator's flat functional memory (64-bit words keyed by
// byte address). The cache hierarchy models timing; this holds the values.
type Memory map[uint64]uint64

// pendingMemOp tracks a load/store between store-buffer issue and cache
// completion.
type pendingMemOp struct {
	value    uint64
	issuedAt uint64
	addr     uint64
	tag      isa.Tag
	inst     isa.InstID
	cluster  int32
	isStore  bool
}

// route is one instruction instance's address on the machine: the PE that
// hosts it (its index in Processor.pes), the local index it goes by there —
// the name the instruction has in that PE's instruction store, matching
// table and parked lists — and the operand mask it fires on. A token's
// destination resolves with one load of this record.
type route struct {
	pe, li int32
	req    uint8
}

// Processor is a configured WaveScalar machine executing one program on
// some number of threads.
type Processor struct {
	cfg       Config
	prog      *isa.Program
	placement *place.Placement
	// route is the machine's one table from an instruction instance
	// (istKey) to where it lives; see route. It is written where
	// instructions are bound (build) and read once per token destination.
	route   []route
	threads int
	params  []map[string]uint64

	// The machine's components are values in per-machine slabs, visited by
	// index; see build for what is carved up front and what waits for a
	// first token.
	pes      []peUnit
	domains  []domainUnit
	sbs      []*storebuf.Buffer
	cacheSys *cache.System
	grid     *noc.Grid
	mem      Memory

	outbox   fifo[*noc.Message] // retry queue for grid injections
	herds    herdPool           // every PE's parked and released herds
	inflight memRing            // memory operations the cache has not completed
	reqSeq   uint64             // the next memory request id

	// Active-set scheduler state (see activeTick): one work list per PE
	// pipeline phase plus one each for the domain pseudo-PEs and the
	// store buffers. Queue-push sites arm these unconditionally in both
	// modes (arming is idempotent and branch-cheap); only activeTick
	// drains them, visiting members in ascending index order — the
	// full-scan loop's visit order — so results are identical.
	actComplete *activeSet
	actDispatch *activeSet
	actOutput   *activeSet
	actInput    *activeSet
	actDomain   *activeSet
	actSB       *activeSet

	// Free lists for the token path's transient objects. They hold
	// steady-state allocations at ~zero: messages and payloads recycle at
	// the NoC sink, store-buffer requests after the buffer copies them in.
	msgFree []*noc.Message
	payFree []*operandPayload
	reqFree []*storebuf.Request

	fatalErr error // first fatal error latched by a callback

	// rec is the optional event recorder (nil when tracing is off; every
	// use is behind a nil check, so the disabled path costs one branch).
	rec *trace.Recorder

	fullScan   bool // tick with scanTick, the reference scheduler (NewFullScan)
	ran        bool // Run has been called: a Processor runs once
	halted     []bool
	haltValues []uint64
	haltCount  int
	lastHalt   uint64
	progress   uint64
	cycle      uint64
	stats      Stats

	// carve cuts first buffers and pooled objects from per-machine blocks
	// (see carver). It is read only when a queue or pool takes its first
	// buffer or a free list is empty, so it sits behind every field a
	// cycle reads.
	carve carvers
}

// NewFullScan is New with the reference scheduler, scanTick, which visits
// every component every cycle. It produces byte-identical results to the
// active set at more host cost per cycle; it exists so the equivalence
// checks can build the oracle they compare against, and a configuration
// has no way to ask for it.
func NewFullScan(cfg Config, prog *isa.Program, params []map[string]uint64, mem Memory) (*Processor, error) {
	p, err := New(cfg, prog, params, mem)
	if err == nil {
		p.fullScan = true
	}
	return p, err
}

// New builds a processor for prog with one parameter map per thread.
// mem seeds the functional memory (it is copied).
func New(cfg Config, prog *isa.Program, params []map[string]uint64, mem Memory) (*Processor, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("sim: need at least one thread")
	}
	threads := len(params)
	pl, err := place.Place(prog, threads, place.Config{
		Clusters: cfg.Arch.Clusters, Domains: cfg.Arch.Domains,
		PEs: cfg.Arch.PEs, Virt: cfg.Arch.Virt, Policy: cfg.Placement,
	})
	if err != nil {
		return nil, err
	}
	p := &Processor{
		cfg:        cfg,
		prog:       prog,
		placement:  pl,
		threads:    threads,
		params:     params,
		mem:        make(Memory, len(mem)),
		halted:     make([]bool, threads),
		haltValues: make([]uint64, threads),
		rec:        cfg.Trace,
	}
	p.rec.Bind(cfg.Arch.Clusters, cfg.Arch.Domains, cfg.Arch.PEs)
	for a, v := range mem {
		p.mem[a] = v
	}

	// Build the machine.
	arch := cfg.Arch
	gw, gh := noc.DimsFor(arch.Clusters)
	p.build()
	p.actComplete = newActiveSet(len(p.pes))
	p.actDispatch = newActiveSet(len(p.pes))
	p.actOutput = newActiveSet(len(p.pes))
	p.actInput = newActiveSet(len(p.pes))
	p.actDomain = newActiveSet(len(p.domains))
	p.actSB = newActiveSet(arch.Clusters)
	for ci := 0; ci < arch.Clusters; ci++ {
		ci := ci
		p.sbs = append(p.sbs, storebuf.New(storebuf.Config{
			Contexts:    cfg.SBContexts,
			PSQs:        cfg.PSQs,
			PSQEntries:  cfg.PSQEntries,
			PipelineLat: cfg.SBPipeLat,
			Cluster:     ci,
			Trace:       cfg.Trace,
		}, func(cycle uint64, op storebuf.Issued) {
			p.sbIssue(cycle, ci, op)
		}))
	}
	p.grid = noc.New(gw, gh, noc.Config{PortBW: cfg.NocBW, QueueCap: cfg.NocQCap, Trace: cfg.Trace}, p.nocSink)
	p.cacheSys = cache.New(cfg.CacheConfig(), p.cacheDone, p.cacheSend)

	return p, nil
}

// build lays the PEs and domain units out once the placement is known.
// Everything whose size the placement fixes comes from a per-machine slab:
// the PEs and domain units themselves, and — sized by how many instructions
// the placement binds to each PE — the instruction stores, the matching
// tables' headers and per-index state, and the parked lists. Every PE's
// share is cut to length (s[:n:n]). What depends on the run waits for it: a
// PE's queues, its token pool and its matching table's entries are taken
// when its first token arrives, so a PE that never receives one costs its
// headers. They are cut from per-machine blocks (p.carve, and the matching
// tables' set), so a PE that does receive one costs no allocation of its
// own either.
//
// Instructions are bound in (thread, instruction) order, each thread its
// own instance (the placement isolates threads, so a machine's instruction
// capacity gates how many threads fit — the paper's Table 5 mechanism for
// thread-count jumps).
func (p *Processor) build() {
	arch, nInst := p.cfg.Arch, len(p.prog.Insts)
	bound := make([]int, arch.Clusters*arch.Domains*arch.PEs)
	p.route = make([]route, p.threads*nInst)
	for t := 0; t < p.threads; t++ {
		for i := 0; i < nInst; i++ {
			gi := p.peIndex(p.placement.Loc(uint32(t), isa.InstID(i)))
			p.route[p.istKey(uint32(t), isa.InstID(i))] = route{
				pe: int32(gi), li: int32(bound[gi]), req: requiredMask(&p.prog.Insts[i]),
			}
			bound[gi]++
		}
	}
	stores := istore.NewSet(arch.Virt, bound)
	tables := match.NewSet(match.Config{
		Entries: arch.Match,
		Assoc:   p.cfg.MatchAssoc,
		Banks:   p.cfg.MatchBanks,
		K:       p.cfg.K,
	}, bound)
	lists := make([]herdList, len(p.route)) // one parked list per bound instance

	p.pes = make([]peUnit, len(bound))
	p.domains = make([]domainUnit, arch.Clusters*arch.Domains)
	for ci := 0; ci < arch.Clusters; ci++ {
		for di := 0; di < arch.Domains; di++ {
			gd := ci*arch.Domains + di
			p.domains[gd] = domainUnit{p: p, cluster: ci, index: di, gidx: int32(gd),
				netOutQ: fifo[netMsg]{src: &p.carve.net},
				netInQ:  fifo[netMsg]{src: &p.carve.net},
				memQ:    fifo[memQEntry]{src: &p.carve.mem},
			}
			for pi := 0; pi < arch.PEs; pi++ {
				gi := gd*arch.PEs + pi
				n := bound[gi]
				pe := &p.pes[gi]
				*pe = peUnit{
					p: p, addr: place.PEAddr{Cluster: ci, Domain: di, PE: pi},
					gidx: int32(gi), mt: &tables[gi], ist: &stores[gi],
					parked:   lists[:n:n],
					schedQ:   fifo[schedEntry]{src: &p.carve.sched},
					pending:  fifo[execResult]{src: &p.carve.results},
					outQ:     fifo[outEntry]{src: &p.carve.out},
					outDests: fifo[isa.Target]{src: &p.carve.dests},
				}
				lists = lists[n:]
				pe.mt.OnRelease = pe
			}
		}
	}
}

// istKey names a thread's instance of a static instruction: its row of
// route.
func (p *Processor) istKey(thread uint32, inst isa.InstID) int {
	return int(thread)*len(p.prog.Insts) + int(inst)
}

// routeOf returns where (thread, inst) lives.
func (p *Processor) routeOf(thread uint32, inst isa.InstID) route {
	return p.route[p.istKey(thread, inst)]
}

// requiredMask returns the operand-presence mask an instruction fires on.
func requiredMask(in *isa.Instruction) uint8 {
	switch in.Op {
	case isa.OpSteer:
		return 0b101
	case isa.OpSelect:
		return 0b111
	default:
		if in.NumInputs() == 1 {
			return 0b001
		}
		return 0b011
	}
}

// peIndex returns a PE's position in Processor.pes.
func (p *Processor) peIndex(a place.PEAddr) int {
	arch := &p.cfg.Arch
	return (a.Cluster*arch.Domains+a.Domain)*arch.PEs + a.PE
}

// domain returns a cluster's domain unit.
func (p *Processor) domain(cluster, d int) *domainUnit {
	return &p.domains[cluster*p.cfg.Arch.Domains+d]
}

// loc returns the PE hosting (thread, inst).
func (p *Processor) loc(thread uint32, inst isa.InstID) place.PEAddr {
	return p.pes[p.routeOf(thread, inst).pe].addr
}

// Mem exposes the functional memory (useful after Run for verification).
func (p *Processor) Mem() Memory { return p.mem }

// Placement exposes the placement (diagnostics).
func (p *Processor) Placement() *place.Placement { return p.placement }

// CacheFootprint reports the data-memory hierarchy's footprint so far
// (cache.System.Footprint): which cache twins of the configuration the
// run is exact on. It is kept out of Stats, so no digest depends on it.
func (p *Processor) CacheFootprint() cache.Footprint { return p.cacheSys.Footprint() }

// threadHalted records a thread's completion.
func (p *Processor) threadHalted(c uint64, thread uint32, value uint64) {
	if int(thread) < len(p.halted) && !p.halted[thread] {
		p.halted[thread] = true
		p.haltValues[thread] = value
		p.haltCount++
		p.lastHalt = c
	}
}

// HaltValue returns the token value that reached a thread's halt
// instruction (available after Run).
func (p *Processor) HaltValue(thread uint32) uint64 { return p.haltValues[thread] }

// newMsg returns a grid message from the free list, or cut from the
// machine's block when the list is empty.
// Callers must overwrite it wholesale (*m = noc.Message{...}).
func (p *Processor) newMsg() *noc.Message {
	if n := len(p.msgFree) - 1; n >= 0 {
		m := p.msgFree[n]
		p.msgFree = p.msgFree[:n]
		return m
	}
	return &p.carve.msgs.take(1)[0]
}

// newPayload returns an operand payload from the free list, or cut from
// the machine's block.
func (p *Processor) newPayload() *operandPayload {
	if n := len(p.payFree) - 1; n >= 0 {
		pl := p.payFree[n]
		p.payFree = p.payFree[:n]
		return pl
	}
	return &p.carve.pays.take(1)[0]
}

// newReq returns a store-buffer request from the free list, or cut from
// the machine's block.
func (p *Processor) newReq() *storebuf.Request {
	if n := len(p.reqFree) - 1; n >= 0 {
		r := p.reqFree[n]
		p.reqFree = p.reqFree[:n]
		return r
	}
	return &p.carve.reqs.take(1)[0]
}

// nocSink receives grid deliveries. Operand and store-buffer messages are
// the simulator's own (built from the free lists) and are recycled here;
// everything else is cache/coherence traffic, which Deliver takes back
// into the cache system's own free list, so m is not touched after it.
func (p *Processor) nocSink(cycle uint64, port noc.OutPort, m *noc.Message) {
	switch pl := m.Payload.(type) {
	case *operandPayload:
		d := p.domain(m.Dst, pl.dst.Domain)
		d.netInQ.push(netMsg{readyAt: cycle + 2, sentAt: pl.sentAt, tok: pl.tok, dst: pl.dst})
		p.actDomain.arm(d.gidx)
		p.payFree = append(p.payFree, pl)
		p.msgFree = append(p.msgFree, m)
	case *storebuf.Request:
		p.sbs[m.Dst].Enqueue(cycle+1, *pl)
		p.actSB.arm(int32(m.Dst))
		p.reqFree = append(p.reqFree, pl)
		p.msgFree = append(p.msgFree, m)
	default:
		p.cacheSys.Deliver(cycle, m.Dst, m)
	}
}

// cacheSend injects a coherence/memory message into the grid, counting its
// traffic level.
func (p *Processor) cacheSend(cycle uint64, m *noc.Message) bool {
	ok := p.grid.Send(cycle, m)
	if ok {
		lvl := LevelGrid
		if m.Src == m.Dst {
			lvl = LevelCluster
		}
		p.stats.Traffic[lvl][ClassMemory]++
		if p.rec != nil {
			p.rec.Message(cycle, int(lvl), trace.ClassMemory, m.Src, trace.NoDomain, 0, m.Dst)
		}
	}
	return ok
}

// sbIssue receives wave-ordered operations from a cluster's store buffer.
func (p *Processor) sbIssue(cycle uint64, cluster int, op storebuf.Issued) {
	switch op.Kind {
	case storebuf.IssueNop:
		p.respondMem(cycle, cluster, op.Inst, op.Tag, op.Addr)
	case storebuf.IssueLoad:
		p.issueMem(cycle, pendingMemOp{inst: op.Inst, tag: op.Tag, value: p.mem[op.Addr],
			cluster: int32(cluster), issuedAt: cycle, addr: op.Addr})
	case storebuf.IssueStore:
		p.mem[op.Addr] = op.Data
		p.issueMem(cycle, pendingMemOp{inst: op.Inst, tag: op.Tag, value: op.Data,
			cluster: int32(cluster), issuedAt: cycle, addr: op.Addr, isStore: true})
	}
}

// issueMem hands a memory operation to its cluster's cache under the next
// request id.
func (p *Processor) issueMem(cycle uint64, pm pendingMemOp) {
	id := p.reqSeq
	p.reqSeq++
	p.inflight.put(id, pm)
	p.cacheSys.Access(cycle, int(pm.cluster), id, pm.addr, pm.isStore)
}

// cacheDone completes a memory access; an unknown request id is an
// internal anomaly surfaced as ErrBadCompletion instead of the old panic.
func (p *Processor) cacheDone(cycle uint64, cluster int, reqID uint64) {
	pm, ok := p.inflight.take(reqID)
	if !ok {
		p.fatal(fmt.Errorf("sim: %w: request %d (cluster %d) at cycle %d",
			ErrBadCompletion, reqID, cluster, cycle))
		return
	}
	p.finishMem(cycle, pm)
}

// finishMem delivers a completed memory operation's result.
func (p *Processor) finishMem(cycle uint64, pm pendingMemOp) {
	p.stats.MemAccesses++
	p.stats.MemLatTotal += cycle - pm.issuedAt
	p.progress = cycle
	p.respondMem(cycle, int(pm.cluster), pm.inst, pm.tag, pm.value)
}

// respondMem delivers a memory operation's result tokens to its consumers
// from the cluster's memory port.
func (p *Processor) respondMem(cycle uint64, cluster int, inst isa.InstID, tag isa.Tag, value uint64) {
	in := p.prog.Inst(inst)
	for _, d := range in.Dests {
		dst := p.loc(tag.Thread, d.Inst)
		tok := isa.Token{Tag: tag, Value: value, Dest: d}
		if dst.Cluster == cluster {
			p.stats.Traffic[LevelCluster][ClassMemory]++
			if p.rec != nil {
				p.rec.Message(cycle, trace.LevelCluster, trace.ClassMemory, cluster, trace.NoDomain, 0, dst.Cluster)
			}
			dom := p.domain(cluster, dst.Domain)
			dom.netInQ.push(netMsg{readyAt: cycle + 2, tok: tok, dst: dst})
			p.actDomain.arm(dom.gidx)
			continue
		}
		p.stats.Traffic[LevelGrid][ClassMemory]++
		if p.rec != nil {
			p.rec.Message(cycle, trace.LevelGrid, trace.ClassMemory, cluster, trace.NoDomain, 0, dst.Cluster)
		}
		pl := p.newPayload()
		*pl = operandPayload{tok: tok, dst: dst}
		m := p.newMsg()
		*m = noc.Message{Src: cluster, Dst: dst.Cluster, VC: noc.VCMemory, Payload: pl}
		p.outbox.push(m)
	}
}

// cancelCheckMask gates how often RunContext polls its context: every
// 4096 cycles, so cancellation latency stays far below a millisecond of
// wall time while the per-cycle cost of an uncancelled run is one masked
// compare.
const cancelCheckMask = 1<<12 - 1

// drainBudget bounds the post-halt drain that flushes in-flight memory
// so the functional state reflects every store.
const drainBudget = 2_000_000

// Run executes the program to completion and returns the statistics.
func (p *Processor) Run() (*Stats, error) {
	return p.RunContext(context.Background())
}

// RunContext executes the program to completion, checking ctx for
// cancellation every few thousand cycles. A cancelled run returns an
// error wrapping ctx's cause (matchable with errors.Is against
// context.Canceled or context.DeadlineExceeded); the processor's state is
// then mid-flight. However a run ended, the Processor cannot be run again:
// a second call returns ErrAlreadyRun and touches nothing.
//
// A panic anywhere in the simulator core is recovered and returned as an
// error wrapping ErrInternal, with a cycle-stamped machine dump: a bad
// run never takes down the process (the explorer and the simulation
// daemon both run many configurations per process).
func (p *Processor) RunContext(ctx context.Context) (st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("sim: %w: panic at cycle %d: %v\n%s\nstack:\n%s",
				ErrInternal, p.cycle, r, p.dump(), debug.Stack())
		}
	}()
	if p.ran {
		return nil, fmt.Errorf("sim: %w", ErrAlreadyRun)
	}
	p.ran = true
	p.inject()
	c := uint64(0)
	for ; p.haltCount < p.threads; c++ {
		if c&cancelCheckMask == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("sim: run cancelled at cycle %d: %w", c, cerr)
			}
		}
		if c >= p.cfg.MaxCycles {
			return nil, fmt.Errorf("sim: %w: MaxCycles=%d (%d/%d threads done)",
				ErrMaxCycles, p.cfg.MaxCycles, p.haltCount, p.threads)
		}
		if c > p.progress && c-p.progress > p.cfg.StallLimit {
			return nil, fmt.Errorf("sim: %w for %d cycles at cycle %d:\n%s",
				ErrDeadlock, p.cfg.StallLimit, c, p.dump())
		}
		p.tick(c)
		if rerr := p.runErr(c); rerr != nil {
			return nil, rerr
		}
	}
	p.stats.Cycles = p.lastHalt + 1
	p.countAtHalt()
	for drained := uint64(0); !p.quiesced(); drained, c = drained+1, c+1 {
		if drained >= drainBudget {
			return nil, fmt.Errorf("sim: %w:\n%s", ErrNotQuiesced, p.dump())
		}
		if drained&cancelCheckMask == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("sim: run cancelled during drain at cycle %d: %w", c, cerr)
			}
		}
		p.tick(c)
		if rerr := p.runErr(c); rerr != nil {
			return nil, rerr
		}
	}
	p.collect()
	return &p.stats, nil
}

// fatal latches the first fatal error; RunContext checks it every cycle.
// It exists because component callbacks (cache completion, grid sink)
// cannot return errors through their signatures.
func (p *Processor) fatal(err error) {
	if p.fatalErr == nil {
		p.fatalErr = err
	}
}

// runErr surfaces fatal conditions latched by component callbacks during
// the cycle: the processor's own fatal latch and the interconnect's
// structured-error latch (which replaced its panics).
func (p *Processor) runErr(c uint64) error {
	if p.fatalErr == nil {
		if gerr := p.grid.Err(); gerr != nil {
			p.fatalErr = fmt.Errorf("sim: interconnect error at cycle %d: %w", c, gerr)
		}
	}
	return p.fatalErr
}

// inject delivers every thread's parameter tokens at cycle 0.
func (p *Processor) inject() {
	for t := 0; t < p.threads; t++ {
		for _, pr := range p.prog.Params {
			v, ok := p.params[t][pr.Name]
			if !ok && pr.Name == "start" {
				v = 1
			}
			for _, tgt := range pr.Targets {
				p.enqueueIn(p.routeOf(uint32(t), tgt.Inst), 0, 0, isa.Token{
					Tag:   isa.Tag{Thread: uint32(t), Wave: 0},
					Value: v,
					Dest:  tgt,
				})
			}
		}
	}
	p.progress = 0
}

// tick advances the whole machine one cycle under the processor's
// scheduler.
func (p *Processor) tick(c uint64) {
	if p.fullScan {
		p.scanTick(c)
	} else {
		p.activeTick(c)
	}
}

// scanTick is the reference scheduler: every component is visited every
// cycle in index order. It is the oracle activeTick is verified against
// (byte-identical Stats on the full workload suite).
func (p *Processor) scanTick(c uint64) {
	p.cycle = c
	p.grid.Tick(c)
	p.cacheSys.Tick(c)
	for _, sb := range p.sbs {
		sb.Tick(c)
	}
	// Retry queued grid injections.
	for !p.outbox.empty() {
		if !p.grid.Send(c, *p.outbox.peek(0)) {
			break
		}
		p.outbox.popFront()
	}
	for i := range p.domains {
		if d := &p.domains[i]; d.busy() {
			d.tick(c)
		}
	}
	// PE pipeline phases, each across all PEs, so pod bypass is symmetric.
	for i := range p.pes {
		if pe := &p.pes[i]; !pe.pending.empty() {
			pe.phaseComplete(c)
		}
	}
	for i := range p.pes {
		if pe := &p.pes[i]; !pe.schedQ.empty() {
			pe.phaseDispatch(c)
		}
	}
	for i := range p.pes {
		if pe := &p.pes[i]; !pe.outQ.empty() {
			pe.phaseOutput(c)
		}
	}
	for i := range p.pes {
		if pe := &p.pes[i]; pe.inputPending() {
			pe.phaseInput(c)
		}
	}
}

// activeTick advances one cycle visiting only armed components, in the
// same phase order and the same ascending index order as scanTick.
// Each drain is a snapshot: work discovered during a phase arms into the
// phase's next drain (next cycle) or into a later phase's drain this
// cycle — exactly when the full scan would have visited it, because the
// scan's guards are evaluated lazily and cross-component pushes always
// target either a later phase or carry a future ready cycle. A component
// whose queue survives its phase (future readyAt, backpressure, stalls)
// re-arms itself so it is never forgotten.
func (p *Processor) activeTick(c uint64) {
	p.cycle = c
	if p.rec != nil {
		// Work-list occupancy before the drains mutate it: PE visits sum
		// the four phase sets (one PE can appear in several).
		p.rec.SchedOccupancy(c,
			p.actComplete.len()+p.actDispatch.len()+
				p.actOutput.len()+p.actInput.len(),
			p.actDomain.len(), p.actSB.len())
	}
	p.grid.Tick(c)
	p.cacheSys.Tick(c)
	for _, i := range p.actSB.drain() {
		sb := p.sbs[i]
		sb.Tick(c)
		if !sb.Quiet() {
			p.actSB.arm(i)
		}
	}
	// Retry queued grid injections.
	for !p.outbox.empty() {
		if !p.grid.Send(c, *p.outbox.peek(0)) {
			break
		}
		p.outbox.popFront()
	}
	for _, i := range p.actDomain.drain() {
		d := &p.domains[i]
		if d.busy() {
			d.tick(c)
			if d.busy() {
				p.actDomain.arm(i)
			}
		}
	}
	for _, i := range p.actComplete.drain() {
		pe := &p.pes[i]
		if !pe.pending.empty() {
			pe.phaseComplete(c)
			if !pe.pending.empty() {
				p.actComplete.arm(i)
			}
		}
	}
	for _, i := range p.actDispatch.drain() {
		pe := &p.pes[i]
		if !pe.schedQ.empty() {
			pe.phaseDispatch(c)
			if !pe.schedQ.empty() {
				p.actDispatch.arm(i)
			}
		}
	}
	for _, i := range p.actOutput.drain() {
		pe := &p.pes[i]
		if !pe.outQ.empty() {
			pe.phaseOutput(c)
			if !pe.outQ.empty() {
				p.actOutput.arm(i)
			}
		}
	}
	for _, i := range p.actInput.drain() {
		pe := &p.pes[i]
		if pe.inputPending() {
			pe.phaseInput(c)
			if pe.inputPending() {
				p.actInput.arm(i)
			}
		}
	}
}

// quiesced reports whether all queues have drained.
func (p *Processor) quiesced() bool {
	if p.inflight.len() > 0 || p.grid.Pending() > 0 || p.cacheSys.Outstanding() > 0 || !p.outbox.empty() {
		return false
	}
	for _, sb := range p.sbs {
		if !sb.Quiet() {
			return false
		}
	}
	for i := range p.domains {
		if p.domains[i].busy() {
			return false
		}
	}
	for i := range p.pes {
		if pe := &p.pes[i]; pe.busy() || pe.idleParked() > 0 {
			return false
		}
	}
	return true
}

// countAtHalt sets Stats.CountableAtHalt and DynamicAtHalt from the
// per-PE counters as they stand at the end of the cycle the last thread
// halted in, before the post-halt drain.
func (p *Processor) countAtHalt() {
	for i := range p.pes {
		p.stats.CountableAtHalt += p.pes[i].st.Countable
		p.stats.DynamicAtHalt += p.pes[i].st.Dynamic
	}
}

// collect aggregates component statistics.
func (p *Processor) collect() {
	for i := range p.pes {
		pe := &p.pes[i]
		sh := &pe.st
		for lvl := range sh.Traffic {
			for cls := range sh.Traffic[lvl] {
				p.stats.Traffic[lvl][cls] += sh.Traffic[lvl][cls]
			}
		}
		p.stats.OperandLatTotal += sh.OperandLatTotal
		p.stats.OperandCount += sh.OperandCount
		p.stats.Dispatches += sh.Dynamic
		p.stats.Dynamic += sh.Dynamic
		p.stats.Countable += sh.Countable
		p.stats.SpecFires += sh.SpecFires
		p.stats.OutQStalls += sh.OutQStalls
		p.stats.InputRejects += sh.InputRejects
		ms := pe.mt.Stats()
		p.stats.Match.Inserts += ms.Inserts
		p.stats.Match.Matches += ms.Matches
		p.stats.Match.Evictions += ms.Evictions
		p.stats.Match.OverflowHits += ms.OverflowHits
		p.stats.Match.KRejects += ms.KRejects
		p.stats.Match.BankRejects += ms.BankRejects
		is := pe.ist.Stats()
		p.stats.IStoreHits += is.Hits
		p.stats.IStoreMisses += is.Misses
	}
	for _, sb := range p.sbs {
		ss := sb.Stats()
		p.stats.StoreBuf.Arrivals += ss.Arrivals
		p.stats.StoreBuf.IssuedLoads += ss.IssuedLoads
		p.stats.StoreBuf.IssuedStores += ss.IssuedStores
		p.stats.StoreBuf.IssuedNops += ss.IssuedNops
		p.stats.StoreBuf.PSQAllocs += ss.PSQAllocs
		p.stats.StoreBuf.PSQQueued += ss.PSQQueued
		p.stats.StoreBuf.PSQStalls += ss.PSQStalls
		p.stats.StoreBuf.ContextStalls += ss.ContextStalls
		p.stats.StoreBuf.WavesDone += ss.WavesDone
	}
	p.stats.Cache = p.cacheSys.Stats()
	p.stats.Noc = p.grid.Stats()
}

// dump renders diagnostic state for the deadlock report.
func (p *Processor) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  threads halted: %d/%d\n", p.haltCount, p.threads)
	fmt.Fprintf(&b, "  pending mem ops: %d, grid: %d, cache: %d\n",
		p.inflight.len(), p.grid.Pending(), p.cacheSys.Outstanding())
	type peState struct {
		addr                         place.PEAddr
		in, sched, out, pend, parked int
	}
	var states []peState
	for i := range p.pes {
		if pe := &p.pes[i]; pe.busy() || pe.parkedCount > 0 {
			states = append(states, peState{pe.addr, int(pe.inQ.n + pe.hq.n), pe.schedQ.len(), pe.outQ.len(), pe.pending.len(), pe.parkedCount})
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i].in+states[i].sched > states[j].in+states[j].sched })
	for i, s := range states {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... %d more busy PEs\n", len(states)-10)
			break
		}
		fmt.Fprintf(&b, "  PE %+v: inQ=%d sched=%d out=%d pending=%d parked=%d\n",
			s.addr, s.in, s.sched, s.out, s.pend, s.parked)
	}
	for i, sb := range p.sbs {
		st := sb.Stats()
		fmt.Fprintf(&b, "  SB %d: contexts=%d arrivals=%d loads=%d stores=%d nops=%d waves=%d\n",
			i, sb.ActiveContexts(), st.Arrivals, st.IssuedLoads, st.IssuedStores, st.IssuedNops, st.WavesDone)
	}
	return b.String()
}
