package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/workload"
)

// probeReps is how often a microsecond-scale call is repeated inside one
// span, so that the clock's own cost is small beside it.
const probeReps = 20

// simProbe takes every simulation behind the cells through runSim once,
// with spans, and fills in the simulator's block of the ledger.
func simProbe(ctx context.Context, tr *recorder, cells []cellSpec, out map[string]float64) error {
	sims, err := simsOf(cells)
	if err != nil {
		return err
	}
	acc := newSimAccum()
	for _, s := range sims {
		if _, err := runSim(ctx, s, tr, acc); err != nil {
			return err
		}
	}
	simLayerMetrics(tr.spans, acc, out)
	return nil
}

// designProbe calls design.BestThreadsContext directly on every cell,
// the call explore makes per cache miss, and returns the time it took in
// total. Instances are built once per workload, as a sweep builds them.
func designProbe(ctx context.Context, tr *recorder, cells []cellSpec, out map[string]float64) (time.Duration, error) {
	instances := make(map[string]*workload.Instance)
	var spent time.Duration
	sims := 0
	for _, c := range cells {
		cfg, w, sc, err := c.resolve()
		if err != nil {
			return 0, err
		}
		inst := instances[c.App]
		if inst == nil {
			inst = w.Build(sc)
			instances[c.App] = inst
		}
		start := time.Now()
		id := tr.begin("design.best_threads", -1, tr.newOp())
		br, err := design.BestThreadsContext(ctx, cfg, inst, c.Counts)
		tr.end(id)
		spent += time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.id(), err)
		}
		sims += br.Sims
	}
	out["design.best_threads_ms_per_cell"] = ratio(spent.Seconds()*1000, float64(len(cells)))
	out["design.sims_per_cell"] = ratio(float64(sims), float64(len(cells)))
	return spent, nil
}

// exploreProbe times internal/explore's own work per cell, apart from
// the simulation it wraps: hashing the key, writing and reading the
// cache, and replaying the journal that a run of the workload left at
// journal.
func exploreProbe(tr *recorder, cells []cellSpec, journal string, out map[string]float64) error {
	us := func(d time.Duration, calls int) float64 {
		return ratio(float64(d.Nanoseconds())/1000, float64(calls))
	}
	timed := func(name string, fn func()) time.Duration {
		start := time.Now()
		id := tr.begin(name, -1, tr.newOp())
		fn()
		tr.end(id)
		return time.Since(start)
	}

	keys := make([]string, len(cells))
	d := timed("explore.cellkey", func() {
		for rep := 0; rep < probeReps; rep++ {
			for i, c := range cells {
				cfg, w, sc, err := c.resolve()
				if err != nil {
					panic(err) // the same cells resolved in set-up
				}
				keys[i] = explore.CellKey(cfg, w.Name, sc, c.Counts)
			}
		}
	})
	out["explore.cellkey_us"] = us(d, probeReps*len(cells))

	var replays []float64
	var cache *explore.Cache
	loaded := 0
	for rep := 0; rep < 5; rep++ {
		cache = explore.NewCache()
		var err error
		d := timed("explore.replay", func() { loaded, err = explore.ReplayJournal(journal, cache) })
		if err != nil {
			return err
		}
		replays = append(replays, us(d, loaded))
	}
	out["explore.replay_us_per_cell"] = median(replays)
	info, err := os.Stat(journal)
	if err != nil {
		return err
	}
	out["explore.journal_bytes_per_cell"] = ratio(float64(info.Size()), float64(loaded))

	stored := cache.Cells()
	d = timed("explore.cache_put", func() {
		for rep := 0; rep < probeReps; rep++ {
			fresh := explore.NewCache()
			for _, cell := range stored {
				fresh.PutCell(cell)
			}
		}
	})
	out["explore.cache_put_us"] = us(d, probeReps*len(stored))

	missing := 0
	d = timed("explore.cache_hit", func() {
		for rep := 0; rep < probeReps; rep++ {
			for _, k := range keys {
				if _, ok := cache.Cell(k); !ok {
					missing++
				}
			}
		}
	})
	if missing > 0 {
		return fmt.Errorf("explore probe: %d of %d keys are not in the journal %s", missing/probeReps, len(keys), journal)
	}
	out["explore.cache_hit_us"] = us(d, probeReps*len(keys))
	return nil
}
