// Surrogate serving: POST /v1/predict answers run requests from the
// daemon's trained performance model when the per-prediction uncertainty
// clears the confidence threshold, and transparently falls back to the
// real simulation pipeline — byte-identical to POST /v1/runs — when it
// does not. Real measurements always win: a cached cell is served as a
// plain run response, and fault-injected configurations are never
// answered from the model (the training set excludes them by
// construction).
package server

import (
	"errors"
	"log"
	"math"
	"net/http"
	"sync"

	"wavescalar/internal/area"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/surrogate"
)

// defaultSurrogateThreshold is the RelAIPC confidence gate: predictions
// whose relative uncertainty (sigma/mean) exceeds it fall back to
// simulation.
const defaultSurrogateThreshold = 0.1

// WithSurrogateModel serves /v1/predict from the versioned model file at
// path (written by `wssurrogate train`). Loading is eager: a missing or
// incompatible file fails New, not the first request.
func WithSurrogateModel(path string) Option {
	return func(s *Server) error {
		if path == "" {
			return design.ErrBadOptions
		}
		s.surModelPath = path
		return nil
	}
}

// WithSurrogateTrain trains the serving model at startup from the
// journal-replayed cache. A cache with too few usable cells leaves the
// daemon serving fallbacks only (logged, not fatal), so a fresh journal
// and a warm one take the same configuration.
func WithSurrogateTrain() Option {
	return func(s *Server) error {
		s.surTrain = true
		return nil
	}
}

// WithSurrogateThreshold sets the confidence gate: /v1/predict answers
// from the model only when the prediction's relative AIPC uncertainty
// (sigma/mean) is at most rel (default 0.1).
func WithSurrogateThreshold(rel float64) Option {
	return func(s *Server) error {
		if rel <= 0 {
			return design.ErrBadOptions
		}
		s.surThreshold = rel
		return nil
	}
}

// surrogateState is the serving model plus the bookkeeping that lets
// operators watch it: how often it answered, why it fell back, and how
// far its answers landed from reality whenever a predicted cell was
// later actually simulated.
type surrogateState struct {
	model     *surrogate.Predictor
	threshold float64

	mu          sync.Mutex
	pending     map[string]float64 // cell key → predicted AIPC awaiting a real run
	predictions uint64
	fallbacks   map[string]uint64 // reason → count
	validations uint64
	errSum      float64 // Σ relative |observed − predicted| over validations
}

// newSurrogateState builds the daemon's surrogate, or nil when neither
// surrogate option was given.
func (s *Server) newSurrogateState() (*surrogateState, error) {
	if s.surModelPath == "" && !s.surTrain {
		return nil, nil
	}
	st := &surrogateState{
		threshold: s.surThreshold,
		pending:   make(map[string]float64),
		fallbacks: make(map[string]uint64),
	}
	if st.threshold == 0 {
		st.threshold = defaultSurrogateThreshold
	}
	if s.surModelPath != "" {
		m, err := surrogate.Load(s.surModelPath)
		if err != nil {
			return nil, err
		}
		st.model = m
		return st, nil
	}
	samples := explore.CellSamples(s.cache.Cells())
	m, err := surrogate.Train(samples, surrogate.Options{})
	switch {
	case errors.Is(err, surrogate.ErrTooFewSamples):
		log.Printf("server: surrogate: %d usable cells is too few to train; /v1/predict serves fallbacks until restarted over a fuller journal", len(samples))
		return st, nil
	case err != nil:
		return nil, err
	}
	st.model = m
	log.Printf("server: surrogate trained on %d cells (aipc cv-rmse %.4f)", m.Samples, aipcRMSE(m))
	return st, nil
}

func aipcRMSE(m *surrogate.Predictor) float64 {
	for _, mm := range m.Metrics {
		if mm.Name == surrogate.MetricAIPC {
			return mm.CV.RMSE
		}
	}
	return math.NaN()
}

// fallback records why one /v1/predict request went to the simulator.
func (st *surrogateState) fallback(reason string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.fallbacks[reason]++
	st.mu.Unlock()
}

// predicted records one model-served answer, remembering the prediction
// so a later real simulation of the same cell measures the error.
func (st *surrogateState) predicted(key string, aipc float64) {
	st.mu.Lock()
	st.predictions++
	st.pending[key] = aipc
	st.mu.Unlock()
}

// observe closes the loop on a completed simulation: if the cell was
// ever answered by the model, the relative AIPC error feeds the
// wsd_surrogate_observed_error metrics.
func (st *surrogateState) observe(key string, cell explore.Cell) {
	if st == nil || cell.Err != "" {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	pred, ok := st.pending[key]
	if !ok {
		return
	}
	delete(st.pending, key)
	st.validations++
	st.errSum += math.Abs(cell.AIPC-pred) / math.Max(math.Abs(cell.AIPC), 0.01)
}

// series renders the surrogate's bookkeeping as /metrics rows.
func (st *surrogateState) series() []series {
	st.mu.Lock()
	defer st.mu.Unlock()
	fallbacks := series{name: "wsd_surrogate_fallbacks_total", help: "/v1/predict requests that fell back to the simulation pipeline, by reason.", typ: "counter"}
	for _, reason := range sortedKeys(st.fallbacks) {
		fallbacks.samples = append(fallbacks.samples, sample{labels("reason", reason), st.fallbacks[reason]})
	}
	rows := []series{
		counter("wsd_surrogate_predictions_total", "/v1/predict requests answered from the model without simulating.", st.predictions),
		fallbacks,
		counter("wsd_surrogate_validations_total", "Predicted cells later simulated for real (the observed-error sample count).", st.validations),
		counter("wsd_surrogate_observed_error_sum", "Summed relative AIPC error of validated predictions (divide by validations for the mean).", st.errSum),
	}
	if st.model != nil {
		rows = append(rows, gauge("wsd_surrogate_model_samples", "Training-set size of the serving model.", st.model.Samples))
	}
	return append(rows, gauge("wsd_surrogate_confidence_threshold", "RelAIPC gate above which /v1/predict falls back to simulation.", st.threshold))
}

// predictModel identifies the serving model in a prediction response.
type predictModel struct {
	Kind      string  `json:"kind"`
	Samples   int     `json:"samples"`
	Threshold float64 `json:"threshold"`
}

// predictResult is the model's answer for one cell. Cycles and Traffic
// are de-logged expectations and 0 when the journal could not train that
// metric; they are float64 (not the run path's exact integers) because
// they are estimates, not measurements.
type predictResult struct {
	App       string  `json:"app"`
	Arch      string  `json:"arch"`
	AreaMM2   float64 `json:"area_mm2"`
	Scale     string  `json:"scale"`
	Threads   int     `json:"threads"`
	AIPC      float64 `json:"aipc"`
	SigmaAIPC float64 `json:"sigma_aipc"`
	RelSigma  float64 `json:"rel_sigma"`
	Cycles    float64 `json:"cycles,omitempty"`
	Traffic   float64 `json:"traffic,omitempty"`
}

// predictResponse is the body of a model-served POST /v1/predict. A
// fallback response is instead the exact runResponse POST /v1/runs would
// have produced.
type predictResponse struct {
	Key    string        `json:"key"`
	Source string        `json:"source"` // always "surrogate"
	Model  predictModel  `json:"model"`
	Result predictResult `json:"result"`
}

// handlePredict serves POST /v1/predict: the request body is exactly a
// /v1/runs body (scenarios excluded — they are multi-cell), and the
// response is either the model's answer (zero simulation) or, when the
// model cannot answer confidently, the byte-identical /v1/runs response.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	if len(req.Scenario) > 0 {
		writeErr(w, http.StatusBadRequest, "scenarios are multi-cell and not predictable; POST /v1/runs instead")
		return
	}
	spec, status, err := resolveRun(&req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}

	_, measured := s.cache.Cell(spec.key)
	switch {
	case measured:
		// Real data always wins: a cached cell is a measurement, so serve
		// it exactly as /v1/runs would.
		s.sur.fallback("cached")
	case s.sur == nil || s.sur.model == nil:
		s.sur.fallback("no_model")
	case !spec.cfg.Fault.Empty():
		// Fault-injected cells never train the model; never answer them
		// from it either.
		s.sur.fallback("fault")
	default:
		x := surrogate.Features(spec.cfg, spec.w.Name, spec.scale, req.Threads)
		pred := s.sur.model.Predict(x)
		if pred.RelAIPC <= s.sur.threshold {
			s.sur.predicted(spec.key, pred.AIPC)
			writeJSON(w, http.StatusOK, predictResponse{
				Key:    spec.key,
				Source: "surrogate",
				Model: predictModel{
					Kind: s.sur.model.Kind, Samples: s.sur.model.Samples,
					Threshold: s.sur.threshold,
				},
				Result: predictResult{
					App: spec.w.Name, Arch: spec.cfg.Arch.String(), AreaMM2: area.Total(spec.cfg.Arch),
					Scale: spec.scaleName, Threads: req.Threads,
					AIPC: pred.AIPC, SigmaAIPC: pred.SigmaAIPC, RelSigma: pred.RelAIPC,
					Cycles: pred.Cycles, Traffic: pred.Traffic,
				},
			})
			return
		}
		s.sur.fallback("low_confidence")
	}
	s.serveRun(w, r, spec, req.TimeoutS)
}
