package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"wavescalar/internal/area"
	"wavescalar/internal/cli"
	"wavescalar/internal/explore"
	"wavescalar/internal/fault"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// archSpec is the request-side architecture description: any subset of
// the seven Table 3 parameters plus the k-loop bound; omitted fields keep
// their Table 1 baseline values.
type archSpec struct {
	Clusters int `json:"clusters"`
	Domains  int `json:"domains"`
	PEs      int `json:"pes"`
	Virt     int `json:"virt"`
	Match    int `json:"match"`
	L1KB     int `json:"l1_kb"`
	L2MB     int `json:"l2_mb"`
	K        int `json:"k"`
}

// resolve merges the spec over the baseline and validates the result.
func (a *archSpec) resolve() (sim.Config, error) {
	arch := sim.BaselineArch()
	if a != nil {
		set := func(dst *int, v int) {
			if v != 0 {
				*dst = v
			}
		}
		set(&arch.Clusters, a.Clusters)
		set(&arch.Domains, a.Domains)
		set(&arch.PEs, a.PEs)
		set(&arch.Virt, a.Virt)
		set(&arch.Match, a.Match)
		set(&arch.L1KB, a.L1KB)
		set(&arch.L2MB, a.L2MB)
	}
	cfg := sim.Baseline(arch)
	if a != nil && a.K != 0 {
		cfg.K = a.K
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// runRequest is the body of POST /v1/runs. Either workload (+ scale,
// threads, fault) or scenario is set: scenario is a stored digest string
// or an inline scenario document and carries those axes itself.
type runRequest struct {
	Workload string          `json:"workload,omitempty"`
	Scale    string          `json:"scale,omitempty"`     // default "tiny"
	Threads  int             `json:"threads,omitempty"`   // default 1
	Config   *archSpec       `json:"config,omitempty"`    // default Table 1 baseline
	Fault    *fault.Script   `json:"fault,omitempty"`     // optional fault-injection script
	Scenario json.RawMessage `json:"scenario,omitempty"`  // digest string or inline document
	TimeoutS float64         `json:"timeout_s,omitempty"` // wait bound; default server-wide
}

// runResult is the deterministic payload of one measurement — derived
// entirely from the cached cell, so cold runs, singleflight followers and
// warm-restart cache hits serve byte-identical results.
type runResult struct {
	App       string  `json:"app"`
	Arch      string  `json:"arch"`
	AreaMM2   float64 `json:"area_mm2"`
	Scale     string  `json:"scale"`
	Threads   int     `json:"threads"`
	AIPC      float64 `json:"aipc"`
	Cycles    uint64  `json:"cycles"`
	SimCycles uint64  `json:"sim_cycles"`
	Err       string  `json:"err,omitempty"`
}

type runResponse struct {
	Key    string    `json:"key"`
	Cached bool      `json:"cached"`
	Result runResult `json:"result"`
}

func cellResult(cell explore.Cell, areaMM2 float64, scale string) runResult {
	return runResult{
		App: cell.App, Arch: cell.Arch, AreaMM2: areaMM2, Scale: scale,
		Threads: cell.Threads, AIPC: cell.AIPC,
		Cycles: cell.Cycles, SimCycles: cell.SimCycles, Err: cell.Err,
	}
}

// cellSpec is one resolved cell: the (config, workload, scale, thread
// counts) tuple with the content-addressed key derived from it, plus the
// two strings its response row echoes. POST /v1/runs resolves to one, a
// scenario to one per phase, /v1/cluster/execute receives one ready-made;
// the worker does no parsing.
type cellSpec struct {
	cfg     sim.Config
	w       workload.Workload
	scale   workload.Scale
	threads []int
	key     string

	scaleName string // the scale as the request named it
	phase     string // scenario phase name ("" for a plain run)
}

// resolveRun lowers the per-run fields of a request to a runnable cell.
// The returned status is meaningful only on error.
func resolveRun(req *runRequest) (cellSpec, int, error) {
	if req.Workload == "" {
		return cellSpec{}, http.StatusBadRequest, errors.New("workload or scenario is required")
	}
	wl, err := workload.ByName(req.Workload)
	if err != nil {
		return cellSpec{}, http.StatusNotFound, err
	}
	scaleName := req.Scale
	if scaleName == "" {
		scaleName = "tiny"
	}
	sc, err := cli.ParseScale(scaleName)
	if err != nil {
		return cellSpec{}, http.StatusBadRequest, err
	}
	if req.Threads == 0 {
		req.Threads = 1
	}
	if req.Threads < 0 {
		return cellSpec{}, http.StatusBadRequest, fmt.Errorf("threads %d must be positive", req.Threads)
	}
	cfg, err := req.Config.resolve()
	if err != nil {
		return cellSpec{}, http.StatusBadRequest, fmt.Errorf("bad config: %w", err)
	}
	if !req.Fault.Empty() {
		if err := req.Fault.Validate(sim.FaultShape(cfg)); err != nil {
			return cellSpec{}, http.StatusBadRequest, fmt.Errorf("bad fault script: %w", err)
		}
		cfg.Fault = req.Fault
	}
	threads := []int{req.Threads}
	return cellSpec{
		cfg: cfg, w: wl, scale: sc, threads: threads, scaleName: scaleName,
		key: explore.CellKey(cfg, wl.Name, sc, threads),
	}, 0, nil
}

// answer is one cell as a request sees it. cached says the cell was in the
// cache when the request arrived, or that an earlier cell of the same
// request produced it.
type answer struct {
	cell   explore.Cell
	cached bool
}

// ledCell is a cell some request leads: the worker pool runs the spec and
// completes the call every waiter on its key blocks on.
type ledCell struct {
	spec cellSpec
	call *flightCall
}

// cells answers resolved cells, in order — the one request pipeline behind
// /v1/runs, scenario runs and /v1/cluster/execute. Hits are answered from
// the cache; each missing key joins the flight group; the keys this
// request leads go to the worker pool as one job, run in order, charged
// to tenant once ("" charges nothing); then the request waits for every
// call under one timer (timeout 0: none, the caller bounds the wait) and
// its own context. A request that leads nothing takes no queue slot and
// no quota unit. On failure cells has written the response, naming what
// was being waited for, and reports false.
func (s *Server) cells(w http.ResponseWriter, r *http.Request, specs []cellSpec, what, tenant string, timeout time.Duration) ([]answer, bool) {
	out := make([]answer, len(specs))
	var calls map[string]*flightCall // by missing key; nil while every cell is a hit
	var led []ledCell
	for i := range specs {
		spec := &specs[i]
		if out[i].cell, out[i].cached = s.exp.Cache().Cell(spec.key); out[i].cached {
			continue
		}
		if calls == nil {
			if s.isClosing() {
				writeErr(w, http.StatusServiceUnavailable, "shutting down")
				return nil, false
			}
			calls = make(map[string]*flightCall)
		}
		if calls[spec.key] != nil {
			out[i].cached = true // an earlier cell of this request produces it
			continue
		}
		call, leader := s.flight.join(spec.key)
		calls[spec.key] = call
		if leader {
			led = append(led, ledCell{spec: *spec, call: call})
		} else {
			s.metrics.add(&s.metrics.dedupShared, 1)
		}
	}
	if calls == nil {
		return out, true
	}
	if len(led) > 0 {
		if err := s.admit(&job{kind: jobCells, cells: led}, tenant); err != nil {
			for _, lc := range led {
				s.flight.complete(lc.spec.key, lc.call, explore.Cell{}, err)
			}
			s.writeAdmissionErr(w, err)
			return nil, false
		}
	}

	var deadline <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	for i := range specs {
		call := calls[specs[i].key]
		if call == nil {
			continue
		}
		select {
		case <-call.done:
		case <-deadline:
			// The simulations keep running and will be cached; a retry
			// after they complete is a cache hit.
			writeErr(w, http.StatusGatewayTimeout, "deadline exceeded waiting for %s; retry later for the cached result", what)
			return nil, false
		case <-r.Context().Done():
			writeErr(w, http.StatusGatewayTimeout, "caller gave up; the %s continues and will be cached", what)
			return nil, false
		}
		if call.err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v", call.err)
			return nil, false
		}
		out[i].cell = call.cell
	}
	return out, true
}

// waitFor converts a request's timeout_s into the wait bound cells takes,
// defaulting to the server-wide request timeout.
func (s *Server) waitFor(timeoutS float64) time.Duration {
	if timeoutS > 0 {
		return time.Duration(timeoutS * float64(time.Second))
	}
	return s.requestTimeout
}

// runCell produces one led cell on a pool worker — Explorer.RunOne: cache,
// simulation, cache and journal write-through — counts the outcome, and
// completes the call. It runs on the server's base context: request
// contexts bound only the wait, never the simulation, so a disconnecting
// client cannot kill work that concurrent identical requests (or the
// cache) will use.
func (s *Server) runCell(lc ledCell) {
	spec := lc.spec
	cell, cached, err := s.exp.RunOne(s.baseCtx, spec.cfg, spec.w, spec.scale, spec.threads)
	if cell.Key == "" {
		// Cancelled mid-simulation (shutdown drain deadline).
		s.metrics.add(&s.metrics.simsCancelled, 1)
		s.flight.complete(spec.key, lc.call, explore.Cell{}, errShuttingDown)
		return
	}
	if err != nil {
		// The cell is valid but the journal append failed; serve the
		// result and surface the durability problem as a metric.
		s.metrics.add(&s.metrics.journalErrors, 1)
	}
	if !cached {
		if !spec.cfg.Fault.Empty() {
			s.metrics.add(&s.metrics.faultSims, 1)
		}
		if cell.Err != "" {
			s.metrics.add(&s.metrics.simsFailed, 1)
		} else {
			s.metrics.add(&s.metrics.simsCompleted, 1)
		}
	}
	s.flight.complete(spec.key, lc.call, cell, nil)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	if len(req.Scenario) > 0 {
		s.handleScenarioRun(w, r, &req)
		return
	}
	spec, status, err := resolveRun(&req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	got, ok := s.cells(w, r, []cellSpec{spec}, "simulation", tenantOf(r), s.waitFor(req.TimeoutS))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, runResponse{
		Key: spec.key, Cached: got[0].cached,
		Result: cellResult(got[0].cell, area.Total(spec.cfg.Arch), spec.scaleName),
	})
}
