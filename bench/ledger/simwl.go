package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"
)

// simFlowCells are simulations whose matching-table inputs mostly accept
// what arrives (measured accept ratio >= 0.25): host time is the
// per-token path. 15 cells, so the median op sits inside one cell's
// samples and not on the edge between two.
var simFlowCells = []simSpec{
	onClusters("gemm-os-4x4x4", "tiny", 1, 1),
	onClusters("gemm-os-4x4x4", "tiny", 4, 4),
	onClusters("gemm-as-4x4x4", "tiny", 16, 16),
	onClusters("conv-ws-4x4x2", "tiny", 1, 1),
	onClusters("conv-ws-4x4x2", "tiny", 4, 4),
	onClusters("conv-os-4x4x2", "tiny", 4, 4),
	onClusters("conv-os-4x4x2", "small", 1, 1),
	onClusters("ocean", "tiny", 4, 4),
	onClusters("ocean", "tiny", 16, 16),
	onClusters("raytrace", "tiny", 16, 16),
	onClusters("raytrace", "small", 1, 1),
	onClusters("raytrace", "small", 4, 4),
	onClusters("fft", "tiny", 1, 1),
	onClusters("fft", "tiny", 4, 4),
	onClusters("lu", "tiny", 16, 16),
}

// simRetryCells are simulations that spend their time re-offering
// rejected tokens (accept ratio <= 0.10: 13 to 90 rejected input
// attempts per instruction), and carry the memory-bound kernels.
var simRetryCells = []simSpec{
	onClusters("mpeg2encode", "tiny", 1, 1),
	onClusters("mpeg2encode", "tiny", 16, 1),
	onClusters("radix", "small", 1, 1),
	onClusters("mcf", "small", 1, 1),
	onClusters("mcf", "small", 16, 1),
	onClusters("twolf", "small", 1, 1),
	onClusters("rawdaudio", "small", 16, 1),
	onClusters("gzip", "small", 1, 1),
	onClusters("ammp", "small", 16, 1),
	onClusters("equake", "small", 1, 1),
	onClusters("equake", "small", 16, 1),
	onClusters("art", "small", 1, 1),
	onClusters("art", "small", 16, 1),
}

// simBench is sim_flow and sim_retry: one client, and an op is one
// simulation through workload.Build, sim.New and Processor.RunContext. A
// round runs every cell once, in an order the seed fixes.
type simBench struct {
	cells []simSpec
	pins  *pins
	order []int
	chk   checkResult
	acc   *simAccum
}

func (b *simBench) plan(seed int64) error {
	b.order = rand.New(rand.NewSource(seed)).Perm(len(b.cells))
	h := sha256.New()
	for _, i := range b.order {
		fmt.Fprintln(h, b.cells[i].id())
	}
	b.chk.scheduleHash = shortSum(h)
	return nil
}

func (b *simBench) setup(ctx context.Context, seed int64) error {
	if err := b.plan(seed); err != nil {
		return err
	}
	ref, err := refCheck(b.cells)
	if err != nil {
		return err
	}
	b.chk.refKinstPerS = ref.kinstPerS
	b.acc = newSimAccum()
	// Every cell once: the cross-check, and the warm-up round.
	for _, i := range b.order {
		c := b.cells[i]
		st, err := runSim(ctx, c, nil, nil)
		if err != nil {
			return err
		}
		if st.Countable != ref.countable[refKey{c.App, c.Scale, c.Threads}] {
			b.chk.refMismatches++
		}
		if pinOf(st) != b.pins.Sim[c.id()] {
			b.chk.pinMismatches++
		}
	}
	return nil
}

func (b *simBench) opsPerRound() int { return len(b.cells) }

func (b *simBench) round(ctx context.Context, tr *recorder, ops []opSample) (roundSample, error) {
	r := roundSample{ops: ops}
	start := time.Now()
	for k, i := range b.order {
		c := b.cells[i]
		t0 := time.Now()
		st, err := runSim(ctx, c, tr, b.acc)
		op := opSample{ms: time.Since(t0).Seconds() * 1000}
		if err != nil || pinOf(st) != b.pins.Sim[c.id()] {
			op.failed = true
		} else {
			op.cycles = st.Cycles
		}
		r.ops[k] = op
	}
	r.wall = time.Since(start)
	return r, nil
}

// layers needs no probes of its own: the traced rounds are the probes.
func (b *simBench) layers(_ context.Context, tr *recorder, out map[string]float64) error {
	simLayerMetrics(tr.spans, b.acc, out)
	return nil
}

func (b *simBench) check() checkResult { return b.chk }

func (b *simBench) pin(ctx context.Context, p *pins) error {
	for _, c := range b.cells {
		st, err := runSim(ctx, c, nil, nil)
		if err != nil {
			return err
		}
		p.Sim[c.id()] = pinOf(st)
	}
	return nil
}

func (b *simBench) close() error { return nil }
