package validate

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"wavescalar/internal/area"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// Trend drift gates: the harness recomputes the paper's headline trends
// (fig6 cross-suite AIPC and the area payoff of the bigger machine, fig7
// multi-cluster scaling, table4 matching-table tuning) from fresh sweeps
// at tiny scale and compares each scalar against a checked-in expectation
// with a per-figure tolerance. The gate catches the failure mode the
// differential fuzzer cannot: a change that keeps results correct but
// quietly shifts *performance* until the reproduction no longer shows
// the paper's trends.

// Schema identifiers for the drift report and the expectations file.
const (
	DriftSchema        = "wavescalar-validate-drift/v1"
	ExpectationsSchema = "wavescalar-validate-expectations/v1"
)

// TrendMetric is one recomputed scalar compared against its expectation.
type TrendMetric struct {
	Name   string  `json:"name"`
	Figure string  `json:"figure"`
	Value  float64 `json:"value"`
	// Expected and Tolerance come from the expectations file; Drift is
	// the relative deviation |value-expected| / max(|expected|, 1e-9).
	Expected  float64 `json:"expected"`
	Tolerance float64 `json:"tolerance"`
	Drift     float64 `json:"drift"`
	Pass      bool    `json:"pass"`
}

// DriftReport is the versioned output of `wsvalidate trends`. Like the
// fuzz report it carries no timestamps: identical code produces an
// identical report.
type DriftReport struct {
	Schema  string        `json:"schema"`
	Metrics []TrendMetric `json:"metrics"`
	// Unmatched lists expectation names the recomputation did not
	// produce (stale expectations fail the gate loudly, not silently).
	Unmatched []string `json:"unmatched,omitempty"`
	Pass      bool     `json:"pass"`
}

// Expectations is the checked-in file the drift gate compares against
// (results/validate_expectations.json).
type Expectations struct {
	Schema  string           `json:"schema"`
	Metrics []ExpectedMetric `json:"metrics"`
}

// ExpectedMetric pins one trend scalar. Tolerance is relative; 0 demands
// exact equality (integer metrics like k_opt).
type ExpectedMetric struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Tolerance float64 `json:"tolerance"`
}

// TrendValue is one recomputed scalar before expectation matching.
type TrendValue struct {
	Name   string  `json:"name"`
	Figure string  `json:"figure"`
	Value  float64 `json:"value"`
}

// trendArchSmall/Large are the two fig6 endpoints: a modest machine and
// the paper's baseline. At tiny scale with one thread the larger machine
// is a little *slower* per suite (work spreads across more PEs, costing
// bypass locality) — the gated trend is that this single-thread ratio
// stays put, not that it exceeds one; area pays off in the fig7
// multi-thread scaling metrics below.
var (
	trendArchSmall = area.Params{Clusters: 1, Domains: 2, PEs: 4, Virt: 32, Match: 32, L1KB: 8, L2MB: 0}
	trendArchLarge = sim.BaselineArch()
)

// trendApps picks two representatives per suite — enough to average out
// one kernel's quirks while keeping the gate fast.
var trendApps = map[string][]string{
	"spec2000":   {"gzip", "equake"},
	"mediabench": {"djpeg", "rawdaudio"},
	"splash2":    {"fft", "lu"},
}

// trendSuites fixes iteration order (map order would make the report
// nondeterministic).
var trendSuites = []string{"spec2000", "mediabench", "splash2"}

// ComputeTrends recomputes every gated trend scalar from fresh
// simulations at tiny scale. Deterministic: the same binary always
// returns the same values.
func ComputeTrends(ctx context.Context) ([]TrendValue, error) {
	var out []TrendValue

	// fig6: per-suite AIPC on the small and large machine, single
	// thread, plus the large/small speedup. The absolute AIPCs anchor
	// the simulator's performance level; the speedup is the trend.
	for _, suite := range trendSuites {
		var small, large float64
		for _, app := range trendApps[suite] {
			w, err := workload.ByName(app)
			if err != nil {
				return nil, err
			}
			inst := w.Build(workload.Tiny)
			for _, pt := range []struct {
				arch *area.Params
				dst  *float64
			}{{&trendArchSmall, &small}, {&trendArchLarge, &large}} {
				st, err := design.RunOnceContext(ctx, sim.Baseline(*pt.arch), inst, 1)
				if err != nil {
					return nil, fmt.Errorf("validate: fig6 %s/%s on %+v: %w", suite, app, *pt.arch, err)
				}
				*pt.dst += st.AIPC()
			}
		}
		n := float64(len(trendApps[suite]))
		small, large = small/n, large/n
		out = append(out,
			TrendValue{Name: "fig6_" + suite + "_aipc_small", Figure: "fig6", Value: round4(small)},
			TrendValue{Name: "fig6_" + suite + "_aipc_large", Figure: "fig6", Value: round4(large)},
			TrendValue{Name: "fig6_" + suite + "_speedup", Figure: "fig6", Value: round4(large / small)},
		)
	}

	// fig7: multi-cluster thread scaling on a parallel workload — the
	// 4-cluster machine must beat one cluster by a factor that tracks
	// the paper's near-linear scaling regime.
	{
		w, err := workload.ByName("fft")
		if err != nil {
			return nil, err
		}
		inst := w.Build(workload.Tiny)
		counts := []int{1, 4, 16}
		c1 := trendArchLarge
		c1.L2MB = 0
		c1.L1KB = 8
		c4 := area.Params{Clusters: 4, Domains: 4, PEs: 8, Virt: 32, Match: 32, L1KB: 8, L2MB: 0}
		b1, err := design.BestThreadsContext(ctx, sim.Baseline(c1), inst, counts)
		if err != nil {
			return nil, fmt.Errorf("validate: fig7 C1: %w", err)
		}
		b4, err := design.BestThreadsContext(ctx, sim.Baseline(c4), inst, counts)
		if err != nil {
			return nil, fmt.Errorf("validate: fig7 C4: %w", err)
		}
		out = append(out,
			TrendValue{Name: "fig7_fft_aipc_1c", Figure: "fig7", Value: round4(b1.AIPC)},
			TrendValue{Name: "fig7_fft_aipc_4c", Figure: "fig7", Value: round4(b4.AIPC)},
			TrendValue{Name: "fig7_fft_scaling_4c", Figure: "fig7", Value: round4(b4.AIPC / b1.AIPC)},
		)
	}

	// table4: matching-table tuning on one serial and one parallel
	// representative. k_opt/u_opt are integers (tolerance 0 in the
	// expectations); the max virtualization ratio is the number the
	// paper's design sweep consumes.
	{
		exp, err := explore.New()
		if err != nil {
			return nil, err
		}
		var tunings []design.Tuning
		for _, app := range []string{"equake", "fft"} {
			w, err := workload.ByName(app)
			if err != nil {
				return nil, err
			}
			tn, _, err := exp.Tune(ctx, w, workload.Tiny)
			if err != nil {
				return nil, fmt.Errorf("validate: table4 %s: %w", app, err)
			}
			tunings = append(tunings, tn)
			out = append(out,
				TrendValue{Name: "table4_" + app + "_kopt", Figure: "table4", Value: float64(tn.KOpt)},
				TrendValue{Name: "table4_" + app + "_uopt", Figure: "table4", Value: float64(tn.UOpt)},
			)
		}
		out = append(out, TrendValue{Name: "table4_max_ratio", Figure: "table4",
			Value: round4(design.MaxRatio(tunings))})
	}
	return out, nil
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// Drift compares recomputed trends against expectations. Metrics without
// an expectation pass with Tolerance -1 (informational); expectations
// without a metric land in Unmatched and fail the gate.
func Drift(trends []TrendValue, exp *Expectations) *DriftReport {
	want := map[string]ExpectedMetric{}
	for _, m := range exp.Metrics {
		want[m.Name] = m
	}
	rep := &DriftReport{Schema: DriftSchema, Pass: true}
	for _, tv := range trends {
		m := TrendMetric{Name: tv.Name, Figure: tv.Figure, Value: tv.Value, Tolerance: -1, Pass: true}
		if e, ok := want[tv.Name]; ok {
			delete(want, tv.Name)
			m.Expected = e.Value
			m.Tolerance = e.Tolerance
			m.Drift = round4(math.Abs(tv.Value-e.Value) / math.Max(math.Abs(e.Value), 1e-9))
			m.Pass = m.Drift <= e.Tolerance
			if !m.Pass {
				rep.Pass = false
			}
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	for name := range want {
		rep.Unmatched = append(rep.Unmatched, name)
	}
	if len(rep.Unmatched) > 0 {
		sort.Strings(rep.Unmatched)
		rep.Pass = false
	}
	return rep
}

// ExpectationsFrom pins the given trends as the new expectations, with
// per-figure default tolerances: integers (table4 k/u) exact, ratios
// tight, absolute AIPCs a little looser.
func ExpectationsFrom(trends []TrendValue) *Expectations {
	exp := &Expectations{Schema: ExpectationsSchema}
	for _, tv := range trends {
		tol := 0.05
		switch {
		case tv.Figure == "table4" && tv.Name != "table4_max_ratio":
			tol = 0 // k_opt/u_opt are integers; any change is a real shift
		case tv.Figure == "table4":
			tol = 0.01
		case tv.Figure == "fig7":
			tol = 0.10 // scaling ratios wobble more at tiny scale
		}
		exp.Metrics = append(exp.Metrics, ExpectedMetric{Name: tv.Name, Value: tv.Value, Tolerance: tol})
	}
	return exp
}

// LoadExpectations reads and validates an expectations file.
func LoadExpectations(path string) (*Expectations, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exp Expectations
	if err := json.Unmarshal(doc, &exp); err != nil {
		return nil, fmt.Errorf("validate: expectations %s: %w", path, err)
	}
	if exp.Schema != ExpectationsSchema {
		return nil, fmt.Errorf("validate: expectations %s: schema %q, want %q", path, exp.Schema, ExpectationsSchema)
	}
	return &exp, nil
}
