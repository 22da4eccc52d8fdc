// Package design implements the paper's design-space methodology
// (Section 4.2): enumeration of WaveScalar processor configurations over
// the area model's parameter ranges, the pruning rules that remove
// unbuildable or clearly inefficient designs, the matching-table tuning
// procedure of Table 4, and the area/performance Pareto analysis of
// Figures 6 and 7 and Table 5.
package design

import (
	"fmt"
	"sort"
	"sync"

	"wavescalar/internal/area"
)

// Point is one candidate processor configuration with its modeled area.
type Point struct {
	Arch area.Params
	Area float64 // mm² from the Table 3 model
}

// MaxDie is the paper's die-size bound for feasible designs.
const MaxDie = 400.0

// powersUpTo returns powers of two from lo to hi inclusive.
func powersUpTo(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
	}
	return out
}

// Enumerate lists every configuration in the Table 3 parameter ranges at
// power-of-two steps — the paper's "over twenty-one thousand"
// configurations.
func Enumerate() []Point {
	var out []Point
	for _, c := range powersUpTo(1, 64) {
		for _, d := range powersUpTo(1, 4) {
			for _, p := range powersUpTo(2, 8) {
				for _, v := range powersUpTo(8, 256) {
					for _, m := range powersUpTo(16, 128) {
						for _, l1 := range powersUpTo(8, 32) {
							for _, l2 := range append([]int{0}, powersUpTo(1, 32)...) {
								arch := area.Params{
									Clusters: c, Domains: d, PEs: p,
									Virt: v, Match: m, L1KB: l1, L2MB: l2,
								}
								out = append(out, Point{Arch: arch, Area: area.Total(arch)})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Rules documents the pruning applied by Viable, in order.
var Rules = []string{
	"die area at most 400mm2 (aggressively large yet feasible)",
	"fewer than 8 PEs per domain implies a single domain (combining PEs into one domain costs no cycle time and reduces communication latency)",
	"fewer than 4 domains implies a single cluster",
	"multi-cluster processors use square grids (C in {1, 4, 16, 64}) so the inter-cluster interconnect stays balanced",
	"virtualization ratio M/V fixed at 1, the conservative maximum of Table 4 (any lower ratio can be emulated by not filling the instruction store)",
	"total instruction capacity at least 4K instructions (smaller capacities thrash)",
	"L2 capacity at most 4MB per 100mm2 of die (an L2 dominating the die starves the PEs that would use it)",
}

// Viable applies the pruning rules and returns the surviving designs,
// sorted by area. The paper reports 41 survivors from its (not fully
// published) rule list; this list lands in the same regime and brackets
// the same Pareto structure. The list is a pure function of the area
// model, so it is computed once per process; every caller gets its own
// copy to sort, truncate or overwrite.
func Viable() []Point {
	return append([]Point(nil), viable()...)
}

var viable = sync.OnceValue(prune)

// prune is one Enumerate-and-prune pass.
func prune() []Point {
	var out []Point
	for _, pt := range Enumerate() {
		a := pt.Arch
		if pt.Area > MaxDie {
			continue
		}
		if a.PEs < 8 && a.Domains != 1 {
			continue
		}
		if a.Domains < 4 && a.Clusters != 1 {
			continue
		}
		if a.Clusters != 1 && a.Clusters != 4 && a.Clusters != 16 && a.Clusters != 64 {
			continue
		}
		if a.Match != a.Virt {
			continue // virtualization ratio 1
		}
		if a.Capacity() < 4096 {
			continue
		}
		if float64(a.L2MB) > 4*pt.Area/100 {
			continue
		}
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Area != out[j].Area {
			return out[i].Area < out[j].Area
		}
		return out[i].Arch.String() < out[j].Arch.String()
	})
	return out
}

// Subsample picks n of pts evenly spaced, in order — how wspareto -max and
// the daemon's max / max_points thin the area-sorted viable list. n must be
// in [1, len(pts)].
func Subsample(pts []Point, n int) []Point {
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*len(pts)/n])
	}
	return out
}

// Evaluated pairs a design point with its measured performance.
type Evaluated struct {
	Point
	AIPC float64
}

// Pareto returns the Pareto-optimal subset (no other design is both
// smaller and faster), sorted by area.
func Pareto(evals []Evaluated) []Evaluated {
	sorted := append([]Evaluated(nil), evals...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Area != sorted[j].Area {
			return sorted[i].Area < sorted[j].Area
		}
		return sorted[i].AIPC > sorted[j].AIPC
	})
	var out []Evaluated
	best := -1.0
	for _, e := range sorted {
		if e.AIPC > best {
			out = append(out, e)
			best = e.AIPC
		}
	}
	return out
}

// FrontierRow is one line of a Table 5-style report.
type FrontierRow struct {
	Evaluated
	AreaIncrease float64 // % over the previous frontier point
	AIPCIncrease float64 // % over the previous frontier point
}

// FrontierTable annotates a Pareto frontier with the marginal area and
// performance increases of Table 5.
func FrontierTable(frontier []Evaluated) []FrontierRow {
	rows := make([]FrontierRow, len(frontier))
	for i, e := range frontier {
		rows[i] = FrontierRow{Evaluated: e}
		if i > 0 {
			prev := frontier[i-1]
			rows[i].AreaIncrease = 100 * (e.Area - prev.Area) / prev.Area
			rows[i].AIPCIncrease = 100 * (e.AIPC - prev.AIPC) / prev.AIPC
		}
	}
	return rows
}

// FormatFrontier renders rows in the shape of Table 5.
func FormatFrontier(rows []FrontierRow) string {
	s := fmt.Sprintf("%-3s %-34s %8s %10s %6s %8s %8s\n",
		"id", "configuration", "capacity", "area(mm2)", "AIPC", "dArea%", "dAIPC%")
	for i, r := range rows {
		inc := func(v float64) string {
			if i == 0 {
				return "na"
			}
			return fmt.Sprintf("%.1f%%", v)
		}
		s += fmt.Sprintf("%-3d %-34s %8d %10.1f %6.2f %8s %8s\n",
			i+1, r.Arch.String(), r.Arch.Capacity(), r.Area, r.AIPC,
			inc(r.AreaIncrease), inc(r.AIPCIncrease))
	}
	return s
}
