// Package surrogate is a stdlib-only learned performance predictor for
// the design-space explorer: it trains cheap models (ridge-regularized
// linear regression and a gradient-boosted-stumps ensemble) on journaled
// sweep cells and predicts a configuration's AIPC, cycle count and NoC
// traffic without simulating, with a per-prediction uncertainty estimate.
//
// The predictor backs three consumers:
//
//   - explore.SweepGuided drives a Pareto sweep by expected improvement,
//     recovering the frontier with a fraction of the exhaustive
//     simulation budget;
//   - wstune -surrogate prunes non-competitive k candidates from the
//     Table 4 tuning sweep;
//   - the wsd daemon's /v1/predict answers instantly from the model when
//     confidence clears a threshold and falls back to real simulation
//     otherwise.
//
// Training is fully deterministic: samples are canonically ordered by
// cell key, fold assignment is a seeded permutation, and both learners
// iterate features in schema order — so the same journal and seed always
// serialize to byte-identical model files (a property CI asserts).
//
// Uncertainty comes from a k-fold ensemble: the k models trained for
// cross-validation are kept, a prediction is their mean, and its sigma
// combines the spread of the fold predictions (grows off-distribution)
// with the cross-validated RMSE (floors it on-distribution).
package surrogate

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// Version identifies the serialized model schema.
const Version = "v1"

// Metric names, in canonical order. Cycles and traffic are modeled in
// log2 space (their dynamic range spans decades across the design space);
// Prediction de-logs them.
const (
	MetricAIPC    = "aipc"
	MetricCycles  = "log2_cycles"
	MetricTraffic = "log2_traffic"
)

var metricOrder = []string{MetricAIPC, MetricCycles, MetricTraffic}

// Sample is one training row: a cell identity's feature vector plus the
// measured targets. Key orders samples canonically before training (rows
// with equal keys keep input order), so training is independent of
// journal record order.
type Sample struct {
	Key     string
	X       []float64
	AIPC    float64
	Cycles  uint64
	Traffic uint64
	// HasTraffic distinguishes a measured zero from a cell journaled
	// before traffic was recorded; only measured rows train the traffic
	// model.
	HasTraffic bool
}

// Options configure training.
type Options struct {
	// Kind selects the learner: "gbm" (default) or "ridge".
	Kind string
	// Seed drives the fold-assignment permutation.
	Seed int64
	// Folds is the cross-validation fold count (default 5, clamped to
	// the sample count).
	Folds int
	// Lambda is the ridge penalty (default 1).
	Lambda float64
	// Rounds and Rate are the GBM boosting schedule (defaults 120, 0.1).
	Rounds int
	Rate   float64
}

func (o Options) withDefaults() (Options, error) {
	if o.Kind == "" {
		o.Kind = "gbm"
	}
	if o.Kind != "gbm" && o.Kind != "ridge" {
		return o, fmt.Errorf("surrogate: unknown model kind %q (want gbm or ridge)", o.Kind)
	}
	if o.Folds == 0 {
		o.Folds = 5
	}
	if o.Folds < 1 {
		return o, fmt.Errorf("surrogate: folds %d must be positive", o.Folds)
	}
	if o.Lambda == 0 {
		o.Lambda = 1
	}
	if o.Lambda < 0 {
		return o, fmt.Errorf("surrogate: lambda %v must be non-negative", o.Lambda)
	}
	if o.Rounds == 0 {
		o.Rounds = 120
	}
	if o.Rate == 0 {
		o.Rate = 0.1
	}
	return o, nil
}

// CVReport is the k-fold cross-validated error of one metric's model:
// every sample is predicted by the fold model that did not train on it.
type CVReport struct {
	MAE  float64 `json:"mae"`
	RMSE float64 `json:"rmse"`
	// MAPE is relative to max(|target|, 0.01), in target space (log2
	// space for cycles and traffic).
	MAPE float64 `json:"mape"`
	R2   float64 `json:"r2"`
}

// foldModel is one ensemble member: exactly one of Ridge or GBM is set.
type foldModel struct {
	Ridge *ridgeModel `json:"ridge,omitempty"`
	GBM   *gbmModel   `json:"gbm,omitempty"`
}

func (f *foldModel) predict(x []float64) float64 {
	if f.Ridge != nil {
		return f.Ridge.predict(x)
	}
	return f.GBM.predict(x)
}

// MetricModel is the trained ensemble for one target metric.
type MetricModel struct {
	Name    string      `json:"name"`
	Samples int         `json:"samples"`
	CV      CVReport    `json:"cv"`
	Folds   []foldModel `json:"fold_models"`
}

// Predictor is a trained, serializable surrogate model.
type Predictor struct {
	Version  string        `json:"surrogate"`
	Kind     string        `json:"kind"`
	Seed     int64         `json:"seed"`
	FoldsK   int           `json:"folds"`
	Samples  int           `json:"samples"`
	Features []string      `json:"features"`
	Metrics  []MetricModel `json:"metrics"`
}

// ErrTooFewSamples is returned by Train when no metric has enough rows.
var ErrTooFewSamples = errors.New("surrogate: too few training samples")

// Train fits one model per metric on the samples. Samples with mismatched
// feature width are rejected; metrics with fewer than 2 usable rows are
// skipped (Train fails only if every metric is skipped). The result is
// deterministic in (sample set, options): sample order does not matter.
func Train(samples []Sample, opt Options) (*Predictor, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	d := len(featureNames)
	for _, s := range samples {
		if len(s.X) != d {
			return nil, fmt.Errorf("surrogate: sample %q has %d features, schema has %d", s.Key, len(s.X), d)
		}
	}
	ordered := append([]Sample(nil), samples...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Key < ordered[j].Key })

	p := &Predictor{
		Version: Version, Kind: opt.Kind, Seed: opt.Seed, FoldsK: opt.Folds,
		Samples: len(ordered), Features: FeatureNames(),
	}
	for _, name := range metricOrder {
		var xs [][]float64
		var ys []float64
		for _, s := range ordered {
			y, ok := target(s, name)
			if !ok {
				continue
			}
			xs = append(xs, s.X)
			ys = append(ys, y)
		}
		if len(ys) < 2 {
			continue
		}
		mm, err := trainMetric(name, xs, ys, opt)
		if err != nil {
			return nil, fmt.Errorf("surrogate: training %s: %w", name, err)
		}
		p.Metrics = append(p.Metrics, mm)
	}
	if len(p.Metrics) == 0 {
		return nil, fmt.Errorf("%w: %d", ErrTooFewSamples, len(samples))
	}
	return p, nil
}

func target(s Sample, metric string) (float64, bool) {
	switch metric {
	case MetricAIPC:
		return s.AIPC, true
	case MetricCycles:
		return math.Log2(float64(s.Cycles) + 1), s.Cycles > 0
	case MetricTraffic:
		return math.Log2(float64(s.Traffic) + 1), s.HasTraffic
	}
	return 0, false
}

func trainMetric(name string, xs [][]float64, ys []float64, opt Options) (MetricModel, error) {
	n := len(ys)
	k := opt.Folds
	if k > n {
		k = n
	}
	mm := MetricModel{Name: name, Samples: n}

	fit := func(trainIdx []int) (foldModel, error) {
		tx := make([][]float64, len(trainIdx))
		ty := make([]float64, len(trainIdx))
		for i, idx := range trainIdx {
			tx[i], ty[i] = xs[idx], ys[idx]
		}
		if opt.Kind == "ridge" {
			rm, err := fitRidge(tx, ty, opt.Lambda)
			return foldModel{Ridge: rm}, err
		}
		return foldModel{GBM: fitGBM(tx, ty, opt.Rounds, opt.Rate)}, nil
	}

	if k < 2 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		fm, err := fit(all)
		if err != nil {
			return mm, err
		}
		mm.Folds = []foldModel{fm}
		// In-sample error: the honest CV needs >= 2 folds.
		var oof []float64
		for i := range xs {
			oof = append(oof, fm.predict(xs[i]))
		}
		mm.CV = report(ys, oof)
		return mm, nil
	}

	fold := foldAssign(n, k, opt.Seed)
	oof := make([]float64, n)
	for f := 0; f < k; f++ {
		var trainIdx []int
		for i := 0; i < n; i++ {
			if fold[i] != f {
				trainIdx = append(trainIdx, i)
			}
		}
		fm, err := fit(trainIdx)
		if err != nil {
			return mm, err
		}
		mm.Folds = append(mm.Folds, fm)
		for i := 0; i < n; i++ {
			if fold[i] == f {
				oof[i] = fm.predict(xs[i])
			}
		}
	}
	mm.CV = report(ys, oof)
	return mm, nil
}

// foldAssign deterministically spreads n samples over k folds: a seeded
// Fisher-Yates permutation, then round-robin.
func foldAssign(n, k int, seed int64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	s := splitmix{state: uint64(seed) ^ 0x9e3779b97f4a7c15}
	for i := n - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	fold := make([]int, n)
	for pos, idx := range perm {
		fold[idx] = pos % k
	}
	return fold
}

// splitmix is the splitmix64 generator — tiny, seedable, deterministic.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func report(ys, preds []float64) CVReport {
	n := float64(len(ys))
	var mae, sse, mape, mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= n
	var tss float64
	for i, y := range ys {
		err := preds[i] - y
		mae += math.Abs(err)
		sse += err * err
		mape += math.Abs(err) / math.Max(math.Abs(y), 0.01)
		tss += (y - mean) * (y - mean)
	}
	r := CVReport{MAE: mae / n, RMSE: math.Sqrt(sse / n), MAPE: mape / n}
	if tss > 0 {
		r.R2 = 1 - sse/tss
	}
	return r
}

// Prediction is a full multi-metric prediction with uncertainty.
type Prediction struct {
	// AIPC is the predicted mean; SigmaAIPC its uncertainty; RelAIPC the
	// relative uncertainty SigmaAIPC/max(AIPC, 0.01) — the confidence
	// gate the serving path thresholds on.
	AIPC, SigmaAIPC, RelAIPC float64
	// Cycles and Traffic are de-logged expectations (0 if the metric's
	// model was not trainable from the journal).
	Cycles, Traffic float64
}

// metric returns the trained model for name, if present.
func (p *Predictor) metric(name string) *MetricModel {
	for i := range p.Metrics {
		if p.Metrics[i].Name == name {
			return &p.Metrics[i]
		}
	}
	return nil
}

// PredictMetric returns the ensemble mean and sigma for one metric in
// target space (log2 space for cycles/traffic). Sigma combines the fold
// spread with half the cross-validated RMSE, so it is bounded below
// on-distribution and grows as the fold models disagree off-distribution.
func (p *Predictor) PredictMetric(name string, x []float64) (mean, sigma float64, ok bool) {
	mm := p.metric(name)
	if mm == nil || len(mm.Folds) == 0 {
		return 0, 0, false
	}
	var sum float64
	preds := make([]float64, len(mm.Folds))
	for i := range mm.Folds {
		preds[i] = mm.Folds[i].predict(x)
		sum += preds[i]
	}
	mean = sum / float64(len(preds))
	var varf float64
	for _, v := range preds {
		varf += (v - mean) * (v - mean)
	}
	varf /= float64(len(preds))
	floor := mm.CV.RMSE / 2
	sigma = math.Sqrt(varf + floor*floor)
	return mean, sigma, true
}

// PairImportance estimates per-feature sensitivity directly from
// measurements: it ridge-fits Δy ≈ β·Δx over every pair of the given
// rows and returns |β| — the empirical response gradient. Unlike a
// sensitivity read off a trained model's weights it cannot be fooled by a
// learner overfitting residual noise onto a dead axis: once the data contains a twin pair (two rows
// differing only on that axis with equal y), the axis's coefficient is
// pinned to zero by the strongest evidence available. Rows must share
// the feature schema; fewer than two rows yield all zeros.
func PairImportance(xs [][]float64, ys []float64, lambda float64) []float64 {
	d := len(featureNames)
	imp := make([]float64, d)
	if len(xs) < 2 || len(xs) != len(ys) {
		return imp
	}
	if lambda <= 0 {
		lambda = 1e-3
	}
	// Normal equations over all pair differences: (ΣΔxΔx' + λI)β = ΣΔxΔy.
	a := make([][]float64, d)
	for j := range a {
		a[j] = make([]float64, d)
	}
	b := make([]float64, d)
	dx := make([]float64, d)
	for i := 0; i < len(xs); i++ {
		for k := i + 1; k < len(xs); k++ {
			for j := 0; j < d; j++ {
				dx[j] = xs[i][j] - xs[k][j]
			}
			dy := ys[i] - ys[k]
			for j := 0; j < d; j++ {
				if dx[j] == 0 {
					continue
				}
				for l := 0; l < d; l++ {
					a[j][l] += dx[j] * dx[l]
				}
				b[j] += dx[j] * dy
			}
		}
	}
	for j := 0; j < d; j++ {
		a[j][j] += lambda
	}
	beta, err := solve(a, b)
	if err != nil {
		return imp
	}
	for j, v := range beta {
		imp[j] = math.Abs(v)
	}
	return imp
}

// Predict evaluates every trained metric on one feature vector.
func (p *Predictor) Predict(x []float64) Prediction {
	var out Prediction
	if mean, sigma, ok := p.PredictMetric(MetricAIPC, x); ok {
		out.AIPC, out.SigmaAIPC = mean, sigma
		out.RelAIPC = sigma / math.Max(math.Abs(mean), 0.01)
	}
	if mean, _, ok := p.PredictMetric(MetricCycles, x); ok {
		out.Cycles = math.Exp2(mean) - 1
	}
	if mean, _, ok := p.PredictMetric(MetricTraffic, x); ok {
		out.Traffic = math.Exp2(mean) - 1
	}
	return out
}

// ExpectedImprovement is the EI acquisition value for a maximization
// objective: E[max(0, Y − best)] for Y ~ N(mean, sigma²). Zero sigma
// degenerates to max(0, mean−best).
func ExpectedImprovement(mean, sigma, best float64) float64 {
	if sigma <= 0 {
		return math.Max(0, mean-best)
	}
	z := (mean - best) / sigma
	cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
	pdf := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	return (mean-best)*cdf + sigma*pdf
}

// Encode serializes the predictor to versioned, deterministic JSON:
// struct field order is fixed, floats use Go's canonical shortest form.
func (p *Predictor) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return nil, fmt.Errorf("surrogate: encode model: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses a serialized predictor, rejecting unknown versions and
// feature schemas that do not match this package's.
func Decode(b []byte) (*Predictor, error) {
	var p Predictor
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("surrogate: decode model: %w", err)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("surrogate: model version %q, this build speaks %q", p.Version, Version)
	}
	if len(p.Features) != len(featureNames) {
		return nil, fmt.Errorf("surrogate: model has %d features, schema has %d", len(p.Features), len(featureNames))
	}
	for i, name := range p.Features {
		if name != featureNames[i] {
			return nil, fmt.Errorf("surrogate: model feature %d is %q, schema says %q", i, name, featureNames[i])
		}
	}
	return &p, nil
}

// Advisor adapts a trained predictor to design.TuneOptions.Advisor for
// one (app, scale, threads) tuning context: it predicts a
// configuration's AIPC and reports ok only when the prediction's
// relative uncertainty is at most maxRel — the same confidence gate the
// serving path uses — so an unsure model prunes nothing rather than
// pruning wrongly. maxRel <= 0 uses 0.25 (pruning tolerates a looser
// model than serving: the advisor only skips candidates, real
// simulations still decide).
func (p *Predictor) Advisor(app string, sc workload.Scale, threads int, maxRel float64) func(cfg sim.Config) (float64, bool) {
	if maxRel <= 0 {
		maxRel = 0.25
	}
	return func(cfg sim.Config) (float64, bool) {
		pred := p.Predict(Features(cfg, app, sc, threads))
		if pred.RelAIPC > maxRel {
			return 0, false
		}
		return pred.AIPC, true
	}
}

// Save writes the encoded model to path.
func (p *Predictor) Save(path string) error {
	b, err := p.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads and decodes a model file.
func Load(path string) (*Predictor, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("surrogate: load model: %w", err)
	}
	return Decode(b)
}
