package validate

import (
	"context"
	"fmt"
	"reflect"

	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// checkCache verifies the caching invariant the whole serving stack
// rests on: a cache hit must equal a recompute. The case runs three
// times through the explore engine — twice on one explorer (the second
// must be a pure hit returning the identical cell) and once on a fresh
// explorer (an independent recompute that must reproduce the cell
// field-for-field). Any difference means the content-addressed key is
// missing an input or the simulator broke determinism across processes.
//
// The explore engine drives the real simulator directly, so this variant
// costs two simulations and ignores the RunSim hook.
func (ck *Checker) checkCache(c Case, cfg sim.Config, threads int) (*Failure, error) {
	w, err := workload.ByName(c.Workload)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	counts := []int{threads}

	first, err := explore.New()
	if err != nil {
		return nil, err
	}
	cell1, p1, err := first.RunOne(ctx, cfg, w, c.Scale(), counts)
	ck.Sims++
	if err != nil {
		return nil, fmt.Errorf("validate: cache check first run: %w", err)
	}
	if p1.CacheHits != 0 {
		return nil, fmt.Errorf("validate: cache check: first run unexpectedly cached")
	}
	cell2, p2, err := first.RunOne(ctx, cfg, w, c.Scale(), counts)
	if err != nil {
		return nil, fmt.Errorf("validate: cache check hit: %w", err)
	}
	if p2.CacheHits != 1 {
		return &Failure{Case: c, Kind: KindCacheDiverged,
			Detail: "second identical run missed the cache"}, nil
	}
	if !reflect.DeepEqual(cell1, cell2) {
		return &Failure{Case: c, Kind: KindCacheDiverged,
			Detail: fmt.Sprintf("cache hit differs from the run that filled it: %+v vs %+v", cell1, cell2)}, nil
	}

	fresh, err := explore.New()
	if err != nil {
		return nil, err
	}
	cell3, _, err := fresh.RunOne(ctx, cfg, w, c.Scale(), counts)
	ck.Sims++
	if err != nil {
		return nil, fmt.Errorf("validate: cache check recompute: %w", err)
	}
	if !reflect.DeepEqual(cell1, cell3) {
		return &Failure{Case: c, Kind: KindCacheDiverged,
			Detail: fmt.Sprintf("recompute differs from cached cell: %+v vs %+v", cell1, cell3)}, nil
	}
	return nil, nil
}
