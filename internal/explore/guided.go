package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"wavescalar/internal/design"
	"wavescalar/internal/surrogate"
	"wavescalar/internal/workload"
)

// ErrNotEvaluated marks a design point a guided sweep chose not to
// simulate: the surrogate judged it unable to improve the frontier
// within the simulation budget. Such points carry no measurement — only
// the Guided.PredictedAIPC entry — and drop out of frontiers exactly
// like failed points.
var ErrNotEvaluated = errors.New("explore: point not evaluated (outside guided-sweep budget)")

// GuidedSpec configures a surrogate-guided sweep. Zero fields take the
// documented defaults.
type GuidedSpec struct {
	// Scale and ThreadCounts override the explorer's defaults, exactly
	// like SweepSpec.
	Scale        workload.Scale
	ThreadCounts []int
	// BudgetFraction caps evaluated cells at this fraction of the
	// exhaustive sweep (default 0.2). Budget, when positive, is an
	// absolute cell cap and takes precedence.
	BudgetFraction float64
	Budget         int
	// InitPoints seeds the model with this many evenly-area-spaced
	// design points before acquisition starts (default: a third of the
	// point budget, at least 4). Batch is the number of points acquired
	// per round (default: a sixth of the point budget, at least 2).
	InitPoints int
	Batch      int
	// Seed drives model training; the acquisition loop itself is
	// deterministic given the seed.
	Seed int64
	// Model overrides the training options (Seed is forced from the
	// field above).
	Model surrogate.Options
	// Log, when non-nil, receives one line per acquisition round.
	Log func(format string, args ...any)
}

// Guided is the outcome of a guided sweep.
type Guided struct {
	// Results has one row per input point, in input order. Unevaluated
	// points have Err == ErrNotEvaluated (wrapped per app) so
	// design.Frontier skips them.
	Results []design.SweepResult
	// Evaluated flags the points that were actually measured.
	Evaluated []bool
	// PredictedAIPC is the final model's mean-AIPC view of every point
	// (evaluated or not), for gap analysis against measurements.
	PredictedAIPC []float64
	// EvaluatedCells / TotalCells are the budget accounting: cells
	// measured (simulated or cache-answered) vs the exhaustive count.
	EvaluatedCells, TotalCells int
	// Rounds counts acquisition rounds after the seed evaluation.
	Rounds int
	// Predictor is the final model, trained on every evaluated cell.
	Predictor *surrogate.Predictor
}

// SweepGuided recovers the Pareto frontier with a bounded simulation
// budget: it seeds the surrogate with a few evenly-area-spaced points,
// then repeatedly evaluates the unmeasured points with the highest
// expected improvement over the best measured AIPC at equal-or-smaller
// area — the acquisition that targets exactly the points able to enter
// the frontier. Points never chosen are returned with ErrNotEvaluated.
//
// The loop is deterministic given the spec seed: candidate ranking
// breaks EI ties by (smaller area, input order), and training orders
// samples canonically. Evaluated cells flow through the explorer's
// cache and journal exactly like Sweep's, so a guided sweep resumed
// over the same journal re-simulates nothing.
func (e *Explorer) SweepGuided(ctx context.Context, points []design.Point, apps []workload.Workload, spec GuidedSpec) (*Guided, error) {
	scale, threadCounts := e.scale, e.threadCounts
	if spec.Scale != (workload.Scale{}) {
		scale = spec.Scale
	}
	if len(spec.ThreadCounts) > 0 {
		threadCounts = spec.ThreadCounts
	}
	if err := design.ValidateRun(scale, threadCounts); err != nil {
		return nil, err
	}
	if len(points) == 0 || len(apps) == 0 {
		return nil, fmt.Errorf("%w: guided sweep needs points and apps", design.ErrBadOptions)
	}
	if spec.BudgetFraction < 0 || spec.BudgetFraction > 1 {
		return nil, fmt.Errorf("%w: budget fraction %v outside [0, 1]", design.ErrBadOptions, spec.BudgetFraction)
	}
	logf := spec.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	totalCells := len(points) * len(apps)
	budgetCells := spec.Budget
	if budgetCells <= 0 {
		frac := spec.BudgetFraction
		if frac == 0 {
			frac = 0.2
		}
		budgetCells = int(frac * float64(totalCells))
	}
	budgetPoints := budgetCells / len(apps)
	if budgetPoints < 2 {
		budgetPoints = 2
	}
	if budgetPoints > len(points) {
		budgetPoints = len(points)
	}
	initN := spec.InitPoints
	if initN <= 0 {
		initN = budgetPoints / 3
		if initN < 4 {
			initN = 4
		}
	}
	if initN > budgetPoints {
		initN = budgetPoints
	}
	batch := spec.Batch
	if batch <= 0 {
		batch = budgetPoints / 6
		if batch < 2 {
			batch = 2
		}
	}
	mopt := spec.Model
	mopt.Seed = spec.Seed

	g := &Guided{
		Results:       make([]design.SweepResult, len(points)),
		Evaluated:     make([]bool, len(points)),
		PredictedAIPC: make([]float64, len(points)),
		TotalCells:    totalCells,
	}

	// Seed set: evenly spaced over the area-sorted order, endpoints
	// included, so the model sees the whole area range round one.
	byArea := make([]int, len(points))
	for i := range byArea {
		byArea[i] = i
	}
	sort.SliceStable(byArea, func(a, b int) bool { return points[byArea[a]].Area < points[byArea[b]].Area })
	seedSet := make([]int, 0, initN)
	inSeed := make(map[int]bool, initN)
	for i := 0; i < initN; i++ {
		pos := i * (len(byArea) - 1) / max(initN-1, 1)
		idx := byArea[pos]
		if !inSeed[idx] {
			seedSet = append(seedSet, idx)
			inSeed[idx] = true
		}
	}
	// Axis probes: alongside the area-spaced seeds, measure the
	// minimal-area point's single-knob twins — for each architecture knob,
	// the cheapest point differing from the minimal one on that knob
	// alone. Area-spaced seeds differ on several knobs at once, so they
	// cannot tell the dead-axis detector below which knob mattered; one
	// unconfounded pair per knob settles it in round one, and the probes
	// double as ordinary measurements.
	baseK := knobs(points[byArea[0]])
	for axis := 0; axis < len(baseK) && len(seedSet) < budgetPoints-4; axis++ {
		for _, idx := range byArea {
			if inSeed[idx] {
				continue
			}
			pk := knobs(points[idx])
			match := pk[axis] != baseK[axis]
			for a := range pk {
				if a != axis && pk[a] != baseK[a] {
					match = false
					break
				}
			}
			if match {
				seedSet = append(seedSet, idx)
				inSeed[idx] = true
				break
			}
		}
	}
	// Half the post-seed budget explores by acquisition score, half
	// exploits the model's best families (see the exploit phase below).
	exploitN := (budgetPoints - len(seedSet)) / 2
	if exploitN < batch {
		exploitN = batch
	}

	evaluate := func(idxs []int) error {
		pts := make([]design.Point, len(idxs))
		for i, idx := range idxs {
			pts[i] = points[idx]
		}
		res, err := e.SweepWith(ctx, pts, apps, SweepSpec{Scale: scale, ThreadCounts: threadCounts})
		if err != nil {
			// Cancelled mid-batch: completed cells are journaled, but the
			// batch's rows may be partial — report nothing as evaluated.
			return err
		}
		for i, idx := range idxs {
			g.Results[idx] = res[i]
			g.Evaluated[idx] = true
			g.EvaluatedCells += len(apps)
		}
		return nil
	}
	logf("guided sweep: %d points × %d apps; budget %d points (%d cells of %d), seeding %d",
		len(points), len(apps), budgetPoints, budgetPoints*len(apps), totalCells, len(seedSet))
	if err := evaluate(seedSet); err != nil {
		return g, err
	}

	// samples gathers training rows from every evaluated cell so far, by
	// recomputing each cell's content-addressed key against the cache.
	samples := func() []surrogate.Sample {
		var out []surrogate.Sample
		for idx, done := range g.Evaluated {
			if !done {
				continue
			}
			cfg := design.BaselineConfigure(points[idx])
			for _, w := range apps {
				if cell, ok := e.cache.Cell(CellKey(cfg, w.Name, scale, threadCounts)); ok {
					if s, ok := CellSample(cell); ok {
						out = append(out, s)
					}
				}
			}
		}
		return out
	}

	for {
		evalPoints := 0
		for _, done := range g.Evaluated {
			if done {
				evalPoints++
			}
		}
		remaining := budgetPoints - evalPoints
		if remaining <= 0 || evalPoints == len(points) {
			break
		}
		pred, err := surrogate.Train(samples(), mopt)
		if err != nil {
			return g, fmt.Errorf("explore: guided sweep training: %w", err)
		}
		g.Predictor = pred

		// Incumbents: best measured mean AIPC at area <= candidate's.
		type meas struct{ area, aipc float64 }
		var measured []meas
		for idx, done := range g.Evaluated {
			if done && g.Results[idx].Err == nil {
				measured = append(measured, meas{points[idx].Area, g.Results[idx].Mean})
			}
		}
		sort.Slice(measured, func(a, b int) bool { return measured[a].area < measured[b].area })
		incumbent := func(a float64) float64 {
			best := 0.0
			for _, m := range measured {
				if m.area > a {
					break
				}
				if m.aipc > best {
					best = m.aipc
				}
			}
			return best
		}

		// The fold ensemble's sigma barely grows away from the data (the
		// folds agree on their shared extrapolation), so plain EI cannot
		// tell a genuinely unexplored design family from an area-only twin
		// of a measured point. Restore GP-like behavior by adding the
		// sensitivity-weighted distance to the nearest evaluated point:
		// distance along axes the measurements show to matter (clusters,
		// queue capacity) earns an exploration bonus, distance along dead
		// axes (L2 size on an L1-resident working set) earns none. The
		// weights come from PairImportance over the measured per-point
		// means — empirical gradients that a twin pair pins to zero — not
		// from the learner's internals, which overfit residual noise onto
		// dead axes at small sample counts.
		var measX [][]float64
		var measY []float64
		for idx, done := range g.Evaluated {
			if !done || g.Results[idx].Err != nil {
				continue
			}
			cfg := design.BaselineConfigure(points[idx])
			measX = append(measX, surrogate.Features(cfg, apps[0].Name, scale, maxInt(threadCounts)))
			measY = append(measY, g.Results[idx].Mean)
		}
		imp := surrogate.PairImportance(measX, measY, 0)
		dist := func(x []float64) float64 {
			best := math.Inf(1)
			for _, t := range measX {
				d := 0.0
				for j := range x {
					d += imp[j] * math.Abs(x[j]-t[j])
				}
				if d < best {
					best = d
				}
			}
			if math.IsInf(best, 1) {
				return 0
			}
			return best
		}

		// Dead-axis closure: an architecture knob is provably dead — for
		// this suite and scale — once two measured points that differ only
		// on that knob (or on it plus already-dead knobs) agree in mean
		// AIPC to 0.1%. Dead knobs partition the space into design
		// families whose members differ only in dead area; at most one
		// member per family, its minimal-area twin, is worth simulating.
		type measKnob struct {
			k [7]int
			y float64
		}
		var measK []measKnob
		for idx, done := range g.Evaluated {
			if done && g.Results[idx].Err == nil {
				measK = append(measK, measKnob{knobs(points[idx]), g.Results[idx].Mean})
			}
		}
		var dead [7]bool
		for changed := true; changed; {
			changed = false
			for axis := 0; axis < 7; axis++ {
				if dead[axis] {
					continue
				}
				flat, contra := false, false
				for i := 0; i < len(measK) && !contra; i++ {
					for j := i + 1; j < len(measK); j++ {
						isolated, hit := true, false
						for a := 0; a < 7; a++ {
							if measK[i].k[a] == measK[j].k[a] || dead[a] {
								continue
							}
							if a == axis {
								hit = true
								continue
							}
							isolated = false
							break
						}
						if !isolated || !hit {
							continue
						}
						dy := math.Abs(measK[i].y - measK[j].y)
						if dy <= 1e-3*math.Max(math.Abs(measK[i].y), math.Abs(measK[j].y)) {
							flat = true
						} else {
							contra = true
							break
						}
					}
				}
				if flat && !contra {
					dead[axis] = true
					changed = true
				}
			}
		}
		proj := func(idx int) [7]int {
			k := knobs(points[idx])
			for a := range k {
				if dead[a] {
					k[a] = 0
				}
			}
			return k
		}
		// Per family: best measured AIPC, smallest measured area, and the
		// minimal-area unevaluated member (its only pick-worthy one).
		famBest := make(map[[7]int]float64)
		famMinArea := make(map[[7]int]float64)
		for idx, done := range g.Evaluated {
			if !done || g.Results[idx].Err != nil {
				continue
			}
			p := proj(idx)
			if v, ok := famBest[p]; !ok || g.Results[idx].Mean > v {
				famBest[p] = g.Results[idx].Mean
			}
			if a, ok := famMinArea[p]; !ok || points[idx].Area < a {
				famMinArea[p] = points[idx].Area
			}
		}
		famRep := make(map[[7]int]int)
		for _, idx := range byArea {
			if g.Evaluated[idx] {
				continue
			}
			p := proj(idx)
			if _, ok := famRep[p]; !ok {
				famRep[p] = idx
			}
		}

		// Verification candidates: unevaluated members of already-measured
		// families. Measuring one tests the dead-axis hypothesis in a
		// context it has not been tested in — the only way the sweep can
		// catch an interaction, a knob that is dead in one region of the
		// space but live in another (extra clusters, say, only paying off
		// at matching queue capacity). They fill batch slots the scored
		// candidates leave empty: best families first, then the narrowest
		// untested axis signature with the biggest area leverage. If a
		// verification measurement contradicts the hypothesis, the next
		// round's closure resurrects the axis and the families split.
		famMembers := make(map[[7]int][]int)
		for idx, done := range g.Evaluated {
			if done && g.Results[idx].Err == nil {
				famMembers[proj(idx)] = append(famMembers[proj(idx)], idx)
			}
		}
		sigOf := func(a, b int) (sig [7]bool, width int) {
			ka, kb := knobs(points[a]), knobs(points[b])
			for x := range ka {
				if ka[x] != kb[x] {
					sig[x] = true
					width++
				}
			}
			return
		}
		type verifCand struct {
			idx      int
			fam      float64 // family's best measured AIPC
			sigWidth int
			gap      float64
			area     float64
		}
		var verif []verifCand
		seenSig := make(map[string]bool)
		for _, members := range famMembers {
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					sig, _ := sigOf(members[i], members[j])
					seenSig[fmt.Sprint(proj(members[i]), sig)] = true
				}
			}
		}
		for _, idx := range byArea {
			if g.Evaluated[idx] {
				continue
			}
			p := proj(idx)
			members := famMembers[p]
			if len(members) == 0 {
				continue
			}
			if famRep[p] == idx && points[idx].Area < famMinArea[p] {
				continue // already in cands as a refinement twin
			}
			near := members[0]
			for _, m := range members[1:] {
				if math.Abs(points[m].Area-points[idx].Area) < math.Abs(points[near].Area-points[idx].Area) {
					near = m
				}
			}
			sig, width := sigOf(idx, near)
			key := fmt.Sprint(p, sig)
			if seenSig[key] {
				continue
			}
			seenSig[key] = true
			verif = append(verif, verifCand{idx: idx, fam: famBest[p], sigWidth: width,
				gap: math.Abs(points[near].Area - points[idx].Area), area: points[idx].Area})
		}
		sort.SliceStable(verif, func(a, b int) bool {
			if verif[a].fam != verif[b].fam {
				return verif[a].fam > verif[b].fam
			}
			if verif[a].sigWidth != verif[b].sigWidth {
				return verif[a].sigWidth < verif[b].sigWidth
			}
			if verif[a].gap != verif[b].gap {
				return verif[a].gap > verif[b].gap
			}
			if verif[a].area != verif[b].area {
				return verif[a].area < verif[b].area
			}
			return verif[a].idx < verif[b].idx
		})

		// Score candidates by expected hypervolume gain: EI against the
		// area-conditioned incumbent (can this point raise the frontier at
		// its area?) weighted by the area width it would dominate
		// (Aref − area). The width factor is what makes the acquisition
		// area-aware: between two frontier-equivalent designs the smaller
		// one dominates more of the objective space. Measured families
		// contribute at most a refinement candidate — their minimal
		// unevaluated twin, valued at the measured AIPC — which only the
		// exploit phase picks up.
		maxArea := points[byArea[len(byArea)-1]].Area
		aref := maxArea * 1.05
		type cand struct {
			idx   int
			mu    float64 // predicted (or measured-family) mean AIPC
			ei    float64 // raw expected improvement
			score float64 // EI × dominated-area width
			area  float64
			twin  bool // family already measured; value is refinement only
		}
		var cands []cand
		for idx := range points {
			if g.Evaluated[idx] {
				continue
			}
			p := proj(idx)
			if famRep[p] != idx {
				continue // a cheaper twin represents this family
			}
			pointArea := points[idx].Area
			if v, ok := famBest[p]; ok {
				if pointArea >= famMinArea[p] {
					continue // measuring a dearer twin cannot move the frontier
				}
				cands = append(cands, cand{idx: idx, mu: v, area: pointArea, twin: true})
				continue
			}
			cfg := design.BaselineConfigure(points[idx])
			var mu, sg float64
			for _, w := range apps {
				x := surrogate.Features(cfg, w.Name, scale, maxInt(threadCounts))
				m, s, ok := pred.PredictMetric(surrogate.MetricAIPC, x)
				if !ok {
					continue
				}
				mu += m
				sg += s
			}
			mu /= float64(len(apps))
			sg = sg/float64(len(apps)) + dist(surrogate.Features(cfg, apps[0].Name, scale, maxInt(threadCounts)))
			ei := surrogate.ExpectedImprovement(mu, sg, incumbent(pointArea))
			cands = append(cands, cand{
				idx: idx, mu: mu, ei: ei, score: ei * (aref - pointArea),
				area: pointArea,
			})
		}
		if len(cands) == 0 && len(verif) == 0 {
			break
		}
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].score != cands[b].score {
				return cands[a].score > cands[b].score
			}
			if cands[a].area != cands[b].area {
				return cands[a].area < cands[b].area
			}
			return cands[a].idx < cands[b].idx
		})
		topEI := 0.0
		if len(cands) > 0 {
			topEI = cands[0].ei
		}
		n := batch
		if n > remaining {
			n = remaining
		}
		if m := len(cands) + len(verif); n > m {
			n = m
		}
		pick := make([]int, 0, n)
		picked := make(map[int]bool, n)

		// Exploit phase: the last exploitN budget points stop exploring
		// and chase the best families directly. EI alone cannot close the
		// frontier on near-flat landscapes — prediction noise swamps real
		// AIPC differences of a fraction of a percent — but by now every
		// family worth having carries either a measured value (refinement
		// twins, exact) or an anchored prediction, and there is exactly
		// one candidate per family. Evaluating them best-value-first puts
		// each top family's minimal-area twin on the measured frontier.
		if remaining <= exploitN {
			order := append([]cand(nil), cands...)
			sort.SliceStable(order, func(a, b int) bool {
				if order[a].mu != order[b].mu {
					return order[a].mu > order[b].mu
				}
				if order[a].area != order[b].area {
					return order[a].area < order[b].area
				}
				return order[a].idx < order[b].idx
			})
			for _, c := range order {
				if len(pick) == n {
					break
				}
				pick = append(pick, c.idx)
				picked[c.idx] = true
			}
		} else if len(cands) > 0 && topEI < 1e-9 {
			refinable := false
			for _, c := range cands {
				if c.twin {
					refinable = true
					break
				}
			}
			if !refinable && len(verif) == 0 {
				logf("guided sweep: round %d: top EI %.2g — model sees no frontier candidates left, stopping at %d/%d points",
					g.Rounds+1, topEI, evalPoints, budgetPoints)
				break
			}
		}

		// Batch selection is area-stratified: the frontier is a function
		// of area, so recovering it needs samples across the whole area
		// axis, not just where the acquisition peaks globally (in flat
		// regions of the landscape EI barely discriminates, and a greedy
		// batch would cluster). Candidates are split into n equal strata
		// by area rank and each stratum contributes its top-score
		// candidate; leftover slots (empty strata, or slots the exploit
		// phase left unfilled) fall back to global score order.
		if len(pick) < n {
			byAreaRank := append([]cand(nil), cands...)
			sort.SliceStable(byAreaRank, func(a, b int) bool {
				if byAreaRank[a].area != byAreaRank[b].area {
					return byAreaRank[a].area < byAreaRank[b].area
				}
				return byAreaRank[a].idx < byAreaRank[b].idx
			})
			for s := 0; s < n && len(pick) < n; s++ {
				lo, hi := s*len(byAreaRank)/n, (s+1)*len(byAreaRank)/n
				best := -1
				for i := lo; i < hi; i++ {
					c := byAreaRank[i]
					if picked[c.idx] {
						continue
					}
					if best < 0 || c.score > byAreaRank[best].score {
						best = i
					}
				}
				if best >= 0 {
					pick = append(pick, byAreaRank[best].idx)
					picked[byAreaRank[best].idx] = true
				}
			}
			for _, c := range cands {
				if len(pick) == n {
					break
				}
				if !picked[c.idx] {
					pick = append(pick, c.idx)
					picked[c.idx] = true
				}
			}
		}
		// Whatever slots the scored candidates left go to verification.
		for _, v := range verif {
			if len(pick) == n {
				break
			}
			if !picked[v.idx] {
				pick = append(pick, v.idx)
				picked[v.idx] = true
			}
		}
		if len(pick) == 0 {
			break
		}
		g.Rounds++
		archs := make([]string, len(pick))
		for i, idx := range pick {
			archs[i] = points[idx].Arch.String()
		}
		logf("guided sweep: round %d: evaluating %d points (top EI %.3f, %d/%d point budget used): %v",
			g.Rounds, len(pick), topEI, evalPoints, budgetPoints, archs)
		if err := evaluate(pick); err != nil {
			return g, err
		}
	}

	// Final model over everything evaluated; predicted AIPC for every point.
	pred, err := surrogate.Train(samples(), mopt)
	if err != nil {
		return g, fmt.Errorf("explore: guided sweep training: %w", err)
	}
	g.Predictor = pred
	for idx := range points {
		cfg := design.BaselineConfigure(points[idx])
		var mu float64
		for _, w := range apps {
			m, _, ok := pred.PredictMetric(surrogate.MetricAIPC,
				surrogate.Features(cfg, w.Name, scale, maxInt(threadCounts)))
			if ok {
				mu += m
			}
		}
		g.PredictedAIPC[idx] = mu / float64(len(apps))
	}

	// Stamp the never-evaluated points so frontiers skip them.
	for idx := range points {
		if !g.Evaluated[idx] {
			g.Results[idx] = design.SweepResult{Point: points[idx], Err: ErrNotEvaluated}
		}
	}
	return g, nil
}

// knobs flattens a design point's architecture parameters into the
// sweep's axis vector, the coordinate system for twin detection and
// dead-axis elimination.
func knobs(p design.Point) [7]int {
	return [7]int{p.Arch.Clusters, p.Arch.Domains, p.Arch.PEs,
		p.Arch.Virt, p.Arch.Match, p.Arch.L1KB, p.Arch.L2MB}
}

func maxInt(vs []int) int {
	m := 1
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
