package design

import (
	"fmt"
	"sort"

	"wavescalar/internal/area"
)

// ScaledPoint is one labeled point of the Figure 7 analysis.
type ScaledPoint struct {
	Label string
	Desc  string
	Arch  area.Params
	Area  float64
	AIPC  float64 // filled by the caller's measurement
}

// ScalingPlan reproduces Figure 7's experiment: from the measured
// one-cluster designs it identifies
//
//	a — the largest one-cluster design within 1 % of the one-cluster
//	    AIPC peak (it need not be Pareto-optimal),
//	c — the one-cluster design with the best performance per area,
//	b — design a naively replicated to four clusters,
//	d — design c replicated to four clusters,
//	e — the smallest Pareto-optimal four-cluster design, and
//	e4 — design e replicated to sixteen clusters,
//
// returning the labeled configurations. Replication multiplies the cluster
// count and total L2 by four, holding the per-cluster configuration fixed
// — exactly the paper's "simply replicate the tile" scenario.
func ScalingPlan(results []SweepResult) ([]ScaledPoint, error) {
	var oneCluster, fourCluster []SweepResult
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		switch r.Arch.Clusters {
		case 1:
			oneCluster = append(oneCluster, r)
		case 4:
			fourCluster = append(fourCluster, r)
		}
	}
	if len(oneCluster) == 0 || len(fourCluster) == 0 {
		return nil, fmt.Errorf("design: scaling analysis needs 1- and 4-cluster results")
	}

	paretoOf := func(rs []SweepResult) []Evaluated {
		evals := make([]Evaluated, 0, len(rs))
		for _, r := range rs {
			evals = append(evals, Evaluated{Point: r.Point, AIPC: r.Mean})
		}
		return Pareto(evals)
	}

	// a: the best-performing one-cluster design. The paper's point 'a'
	// sits at the cache-rich end of the one-cluster curve (its caches
	// nudged performance up by fractions of a percent); we replicate that
	// selection by taking the largest design within 1% of the one-cluster
	// AIPC peak, so a near-flat plateau resolves the same way the paper's
	// measured knee did.
	best := 0.0
	for _, r := range oneCluster {
		if r.Mean > best {
			best = r.Mean
		}
	}
	a := Evaluated{}
	for _, r := range oneCluster {
		if r.Mean >= 0.99*best && r.Area > a.Area {
			a = Evaluated{Point: r.Point, AIPC: r.Mean}
		}
	}

	// c: best performance per area among one-cluster designs.
	c := oneCluster[0]
	for _, r := range oneCluster[1:] {
		if r.Mean/r.Area > c.Mean/c.Area {
			c = r
		}
	}

	p4 := paretoOf(fourCluster)
	e := p4[0] // smallest Pareto-optimal four-cluster design

	replicate := func(arch area.Params, factor int) area.Params {
		arch.Clusters *= factor
		arch.L2MB *= factor
		return arch
	}
	bArch := replicate(a.Arch, 4)
	dArch := replicate(c.Arch, 4)
	e4Arch := replicate(e.Arch, 4)

	return []ScaledPoint{
		{Label: "a", Desc: "largest 1-cluster design within 1% of peak", Arch: a.Arch, Area: a.Area, AIPC: a.AIPC},
		{Label: "b", Desc: "design a replicated to 4 clusters", Arch: bArch, Area: area.Total(bArch)},
		{Label: "c", Desc: "most area-efficient 1-cluster design", Arch: c.Arch, Area: c.Area, AIPC: c.Mean},
		{Label: "d", Desc: "design c replicated to 4 clusters", Arch: dArch, Area: area.Total(dArch)},
		{Label: "e", Desc: "smallest Pareto-optimal 4-cluster design", Arch: e.Arch, Area: e.Area, AIPC: e.AIPC},
		{Label: "e4", Desc: "design e replicated to 16 clusters", Arch: e4Arch, Area: area.Total(e4Arch)},
	}, nil
}

// NearestFrontierGap reports how far a point sits from a frontier: the
// area ratio between the point and the smallest frontier design achieving
// at least its AIPC (1.0 = on the frontier; 2.0 = twice as large as
// needed).
func NearestFrontierGap(frontier []Evaluated, areaMM2, aipc float64) float64 {
	sorted := append([]Evaluated(nil), frontier...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Area < sorted[j].Area })
	for _, e := range sorted {
		if e.AIPC >= aipc {
			return areaMM2 / e.Area
		}
	}
	return 1.0 // faster than everything on the frontier
}
