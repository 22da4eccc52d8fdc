package sim

import "sync"

// Cluster-parallel cycle execution (SchedClusterPar).
//
// The safety argument, checked against every PE-phase effect:
//
//   - phaseComplete/deliver: pod bypass targets PEs in the same pod,
//     which is always the same cluster; memory and remote operands go
//     through the PE's own output queue.
//   - phaseDispatch/execute: mutates only the PE's own matching table,
//     instruction store and queues, plus the per-cluster request free
//     list; halts and forward progress are staged into the cluster's
//     counter shard.
//   - phaseOutput: same-domain tokens are delivered directly (same
//     cluster); everything else lands in the PE's own domain's
//     netOutQ/memQ, drained by the serial head of the *next* cycle.
//   - phaseInput: PE-local matching-table and park state only.
//
// So PE phases touch nothing outside their cluster, and everything with
// cross-cluster reach — the NoC grid, the cache system, the store
// buffers, the outbox retry queue, and the domain pseudo-PEs (which
// allocate from the global message free lists) — runs serially before
// the fan-out. Determinism follows from disjoint state plus merges in
// ascending cluster order, which reproduce the full scan's cluster-major
// visit order exactly.

// haltRec is a thread completion staged by a cluster worker, replayed
// in deterministic order after the barrier.
type haltRec struct {
	c      uint64
	thread uint32
	value  uint64
}

// phaseStats is one shard of the counters the PE pipeline phases
// increment. Serial schedulers use a single shared shard; SchedClusterPar
// gives each cluster its own so the phases never write shared memory.
// The shards fold into Stats in collect.
type phaseStats struct {
	Traffic         [numLevels][numClasses]uint64
	OperandLatTotal uint64
	OperandCount    uint64
	Dispatches      uint64
	Dynamic         uint64
	Countable       uint64
	SpecFires       uint64
	OutQStalls      uint64
	InputRejects    uint64

	halts    []haltRec // staged thread completions (parMode)
	progress uint64    // staged forward-progress watermark (parMode)
	panicked any       // recovered worker panic, re-raised on the main goroutine

	_ [64]byte // keep adjacent cluster shards off one cache line
}

// noteProgress records that the PE dispatched work this cycle. Serial
// schedulers update the stall-detector watermark directly; cluster
// workers stage it in their shard (merged by max after the barrier —
// progress is monotone, so a stale shard value can never win).
func (pe *peUnit) noteProgress(c uint64) {
	if pe.p.parMode {
		pe.st.progress = c
	} else {
		pe.p.progress = c
	}
}

// noteHalt records a thread reaching its halt instruction. Serial
// schedulers apply it immediately; cluster workers stage it for the
// ascending-cluster replay after the barrier. The deferral is invisible:
// halted/haltCount/lastHalt are only read between ticks.
func (pe *peUnit) noteHalt(c uint64, thread uint32, value uint64) {
	if pe.p.parMode {
		pe.st.halts = append(pe.st.halts, haltRec{c: c, thread: thread, value: value})
	} else {
		pe.p.threadHalted(c, thread, value)
	}
}

// parPool is the lazily created set of per-cluster workers. Each worker
// owns one cluster's PE phases; the main goroutine feeds every worker the
// cycle number and waits on the barrier.
type parPool struct {
	jobs []chan uint64
	wg   sync.WaitGroup
}

// ensurePool starts the cluster workers on first use.
func (p *Processor) ensurePool() {
	if p.par != nil {
		return
	}
	pool := &parPool{jobs: make([]chan uint64, p.cfg.Arch.Clusters)}
	per := p.cfg.Arch.Domains * p.cfg.Arch.PEs
	for ci := range pool.jobs {
		ch := make(chan uint64, 1)
		pool.jobs[ci] = ch
		go p.clusterWorker(ci, ci*per, per, ch, &pool.wg)
	}
	p.par = pool
}

// stopPar shuts the worker pool down (idempotent; called when a run
// reaches any terminal state).
func (p *Processor) stopPar() {
	if p.par == nil {
		return
	}
	for _, ch := range p.par.jobs {
		close(ch)
	}
	p.par = nil
}

func (p *Processor) clusterWorker(ci, base, n int, jobs <-chan uint64, wg *sync.WaitGroup) {
	for c := range jobs {
		p.clusterJob(ci, base, n, c)
		wg.Done()
	}
}

// clusterJob runs one cluster's phases for one cycle, converting a panic
// into a staged value so the barrier is never abandoned; parTick re-raises
// it on the main goroutine where step's recover produces the ordinary
// ErrInternal dump.
func (p *Processor) clusterJob(ci, base, n int, c uint64) {
	defer func() {
		if r := recover(); r != nil {
			p.phStats[ci].panicked = r
		}
	}()
	p.clusterPhases(c, base, n)
}

// clusterPhases is scanTick's PE-phase section restricted to one
// cluster's PEs: each phase visits the cluster's PEs in ascending index
// order, with the same busy guards.
func (p *Processor) clusterPhases(c uint64, base, n int) {
	pes := p.pes[base : base+n]
	for _, pe := range pes {
		if !pe.pending.empty() {
			pe.phaseComplete(c)
		}
	}
	for _, pe := range pes {
		if !pe.schedQ.empty() {
			pe.phaseDispatch(c)
		}
	}
	for _, pe := range pes {
		if !pe.outQ.empty() {
			pe.phaseOutput(c)
		}
	}
	for _, pe := range pes {
		if pe.inputPending() {
			pe.phaseInput(c)
		}
	}
}

// parTick advances one cycle with the PE pipeline phases fanned out one
// goroutine per cluster. The serial head is scanTick's: everything with
// cross-cluster reach ticks before the fan-out (parMode guarantees no
// fault script and no trace recorder, so those hooks are absent).
func (p *Processor) parTick(c uint64) {
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
	for _, d := range p.domains {
		if d.busy() {
			d.tick(c)
		}
	}
	p.ensurePool()
	pool := p.par
	pool.wg.Add(len(pool.jobs))
	for _, ch := range pool.jobs {
		ch <- c
	}
	pool.wg.Wait()
	// Merge staged per-cluster effects in ascending cluster order — the
	// full scan's cluster-major visit order, so halt ordering (and with
	// it lastHalt and the reported halt values) is byte-identical.
	for ci := range p.phStats {
		sh := &p.phStats[ci]
		if r := sh.panicked; r != nil {
			sh.panicked = nil
			panic(r)
		}
		if sh.progress > p.progress {
			p.progress = sh.progress
		}
		for _, h := range sh.halts {
			p.threadHalted(h.c, h.thread, h.value)
		}
		sh.halts = sh.halts[:0]
	}
}
