package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/workload"
)

// The sweep_cold universe: a fixed 24-point sample of design.Viable()
// (every len/24-th point by area, in three groups of eight: one- and
// four-cluster machines, four-cluster machines, sixteen-cluster machines)
// by five workloads at tiny scale, searched over thread counts {1, 4}.
const (
	sweepPoints    = 24
	sweepGroupSize = 8 // explore's default batch: one op is one batch
	sweepWorkers   = 2
)

var (
	sweepApps   = []string{"djpeg", "lu", "art", "ocean", "mcf"}
	sweepCounts = []int{1, 4}
)

// sweepOp is one Explorer.Sweep call: eight design points by one workload.
type sweepOp struct {
	app    workload.Workload
	points []design.Point
}

// sweepBench is sweep_cold: one client, and an op is one Explorer.Sweep
// of eight design points by one workload on an explorer that starts each
// round with an empty cache and a fresh journal. A round is 15 ops, 120
// cells.
type sweepBench struct {
	dir     string
	pins    *pins
	cells   []cellSpec
	ops     []sweepOp
	want    map[refKey]uint64
	chk     checkResult
	rounds  int
	journal string // the last round's
	// Cells of the last round whose instruction count differs from the
	// reference interpreter's.
	refMismatches int
	// Progress of the traced rounds' sweeps, for explore.batched_frac.
	simulated, batched int
}

// plan enumerates the universe and fixes the seeded schedule: the seed
// orders the ops of a round and the points inside each op; which points
// share an op is fixed, so every seed does the same work.
func (b *sweepBench) plan(seed int64) error {
	viable := design.Viable()
	var groups [][]design.Point
	for i := 0; i < sweepPoints; i++ {
		if i%sweepGroupSize == 0 {
			groups = append(groups, nil)
		}
		pt := viable[i*len(viable)/sweepPoints]
		groups[len(groups)-1] = append(groups[len(groups)-1], pt)
		for _, app := range sweepApps {
			b.cells = append(b.cells, cellSpec{App: app, Scale: "tiny", Arch: pt.Arch, Counts: sweepCounts})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, name := range sweepApps {
		app, err := workload.ByName(name)
		if err != nil {
			return err
		}
		for _, g := range groups {
			pts := append([]design.Point(nil), g...)
			rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			b.ops = append(b.ops, sweepOp{app: app, points: pts})
		}
	}
	rng.Shuffle(len(b.ops), func(i, j int) { b.ops[i], b.ops[j] = b.ops[j], b.ops[i] })
	h := sha256.New()
	for _, op := range b.ops {
		fmt.Fprintln(h, op.app.Name)
		for _, pt := range op.points {
			fmt.Fprintln(h, pt.Arch)
		}
	}
	b.chk.scheduleHash = shortSum(h)
	return nil
}

func (b *sweepBench) setup(ctx context.Context, seed int64) error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	if err := b.plan(seed); err != nil {
		return err
	}
	sims, err := simsOf(b.cells)
	if err != nil {
		return err
	}
	ref, err := refCheck(sims)
	if err != nil {
		return err
	}
	b.want = ref.countable
	b.chk.refKinstPerS = ref.kinstPerS

	// The warm-up round, whose cells are checked against the reference too.
	warm, err := b.round(ctx, nil, make([]opSample, len(b.ops)))
	if err != nil {
		return err
	}
	b.chk.refMismatches = b.refMismatches
	for _, op := range warm.ops {
		if op.failed {
			b.chk.pinMismatches++
		}
	}
	return nil
}

func (b *sweepBench) opsPerRound() int { return len(b.ops) }

func (b *sweepBench) round(ctx context.Context, tr *recorder, ops []opSample) (roundSample, error) {
	b.rounds++
	b.journal = filepath.Join(b.dir, fmt.Sprintf("round-%d.jsonl", b.rounds))
	r := roundSample{ops: ops}
	clear(ops)
	start := time.Now()
	e, err := explore.New(explore.WithParallelism(sweepWorkers), explore.WithThreadCounts(sweepCounts...),
		explore.WithScale(workload.Tiny), explore.WithJournal(b.journal, false))
	if err != nil {
		return r, err
	}
	for i, op := range b.ops {
		t0 := time.Now()
		opID := tr.newOp()
		root := tr.begin("sweep.op", -1, opID)
		id := tr.begin("explore.sweep", root, opID)
		res, err := e.Sweep(ctx, op.points, []workload.Workload{op.app})
		tr.end(id)
		tr.end(root)
		r.ops[i].ms = time.Since(t0).Seconds() * 1000
		r.ops[i].failed = err != nil
		for _, row := range res {
			if row.Err != nil {
				r.ops[i].failed = true
			}
		}
		if tr != nil {
			p := e.LastProgress()
			b.simulated += p.Simulated
			b.batched += p.Batched
		}
	}
	if err := e.Close(); err != nil {
		return r, err
	}
	r.wall = time.Since(start)

	// Off the clock: every cell the round produced against its pin and
	// against the reference interpreter's instruction count.
	got := make(map[string]explore.Cell)
	for _, cell := range e.Cache().Cells() {
		got[cell.App+"|"+cell.Arch] = cell
	}
	refMismatches := 0
	for i, op := range b.ops {
		for _, pt := range op.points {
			cell, ok := got[op.app.Name+"|"+pt.Arch.String()]
			pin := cellPinOf(cell)
			if !ok || cell.Err != "" || pin != b.pins.Sweep[cell.App+"|"+cell.Arch] {
				r.ops[i].failed = true
				continue
			}
			if pin.countable() != b.want[refKey{cell.App, "tiny", cell.Threads}] {
				refMismatches++
			}
			r.ops[i].cycles += cell.Cycles
		}
	}
	b.refMismatches = refMismatches
	return r, nil
}

func (b *sweepBench) layers(ctx context.Context, tr *recorder, out map[string]float64) error {
	// Taken before the probes add spans of their own: the wall time of
	// one traced round's sweeps.
	total, n := totalTimes(tr.spans)
	sweepWall := ratio(total["explore.sweep"].Seconds(), float64(n["explore.sweep"]/len(b.ops)))
	out["explore.batched_frac"] = ratio(float64(b.batched), float64(b.simulated))

	direct, err := designProbe(ctx, tr, b.cells, out)
	if err != nil {
		return err
	}
	// What a round's sweeps cost beyond the simulations themselves, as a
	// share of the worker time the explorer had: 1 - direct / (wall x workers).
	out["explore.overhead_frac"] = 1 - ratio(direct.Seconds(), sweepWall*sweepWorkers)
	if err := exploreProbe(tr, b.cells, b.journal, out); err != nil {
		return err
	}

	// A sweep that resumes from the last round's journal: every cell a hit.
	e, err := explore.New(explore.WithParallelism(sweepWorkers), explore.WithThreadCounts(sweepCounts...),
		explore.WithScale(workload.Tiny), explore.WithJournal(b.journal, true))
	if err != nil {
		return err
	}
	start := time.Now()
	for _, op := range b.ops {
		id := tr.begin("explore.warm_sweep", -1, tr.newOp())
		_, err := e.Sweep(ctx, op.points, []workload.Workload{op.app})
		tr.end(id)
		if err != nil {
			e.Close()
			return err
		}
		if p := e.LastProgress(); p.CacheHits != len(op.points) {
			e.Close()
			return fmt.Errorf("warm sweep: %d of %d cells were cache hits", p.CacheHits, len(op.points))
		}
	}
	warm := time.Since(start)
	if err := e.Close(); err != nil {
		return err
	}
	out["explore.warm_sweep_us_per_cell"] = ratio(float64(warm.Nanoseconds())/1000, float64(len(b.cells)))

	return simProbe(ctx, tr, b.cells, out)
}

func (b *sweepBench) check() checkResult { return b.chk }

func (b *sweepBench) pin(ctx context.Context, p *pins) error {
	if err := b.plan(1); err != nil {
		return err
	}
	return pinCells(ctx, b.cells, p.Sweep)
}

func (b *sweepBench) close() error { return os.RemoveAll(b.dir) }
