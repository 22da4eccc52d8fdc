package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
	"unsafe"

	"wavescalar/internal/area"
	"wavescalar/internal/cli"
	"wavescalar/internal/explore"
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
// threads) or scenario is set: scenario is a stored digest string
// or an inline scenario document and carries those axes itself.
type runRequest struct {
	Workload string          `json:"workload,omitempty"`
	Scale    string          `json:"scale,omitempty"`    // default "tiny"
	Threads  int             `json:"threads,omitempty"`  // default 1
	Config   *archSpec       `json:"config,omitempty"`   // default Table 1 baseline
	Scenario json.RawMessage `json:"scenario,omitempty"` // digest string or inline document
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
// scenario to one per phase.
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
	if err := cli.Threads(wl, req.Threads); err != nil {
		return cellSpec{}, http.StatusBadRequest, err
	}
	cfg, err := req.Config.resolve()
	if err != nil {
		return cellSpec{}, http.StatusBadRequest, fmt.Errorf("bad config: %w", err)
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
// plain and scenario runs. Hits are answered from the cache (prior holds
// the lookups runMemo.serve already made for the first cells, which are
// not repeated); each missing key joins the flight group; the keys this
// request leads go to the worker pool as one job, run in order; then the
// request waits for every call under one timer (the server-wide request
// timeout) and its own context. A request that leads nothing takes no
// queue slot. On failure cells has written the response, naming what was
// being waited for, and reports false.
func (s *Server) cells(w http.ResponseWriter, r *http.Request, specs []cellSpec, prior []answer, what string) ([]answer, bool) {
	out := make([]answer, len(specs))
	var calls map[string]*flightCall // by missing key; nil while every cell is a hit
	var led []ledCell
	for i := range specs {
		spec := &specs[i]
		if i < len(prior) {
			out[i] = prior[i]
		} else {
			out[i].cell, out[i].cached = s.exp.Cache().Cell(spec.key)
		}
		if out[i].cached {
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
		if err := s.enqueue(&job{kind: jobCells, cells: led}); err != nil {
			for _, lc := range led {
				s.flight.complete(lc.spec.key, lc.call, explore.Cell{}, err)
			}
			s.writeAdmissionErr(w, err)
			return nil, false
		}
	}

	timer := time.NewTimer(s.requestTimeout)
	defer timer.Stop()
	for i := range specs {
		call := calls[specs[i].key]
		if call == nil {
			continue
		}
		select {
		case <-call.done:
		case <-timer.C:
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

// runCell produces one led cell on a pool worker — Explorer.RunOne: cache,
// simulation, cache and journal write-through — counts the outcome, and
// completes the call. It runs on the server's base context: request
// contexts bound only the wait, never the simulation, so a disconnecting
// client cannot kill work that concurrent identical requests (or the
// cache) will use.
func (s *Server) runCell(lc ledCell) {
	spec := lc.spec
	cell, p, err := s.exp.RunOne(s.baseCtx, spec.cfg, spec.w, spec.scale, spec.threads)
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
	s.countSims(p)
	s.flight.complete(spec.key, lc.call, cell, nil)
}

// countSims adds the cells a run or sweep produced to wsd_sims_total.
// Simulated also counts the cells copied from a twin, which ran no
// simulation; a copied cell never fails (it covers every thread count
// with a completed run), so every Failed cell ran.
func (s *Server) countSims(p explore.Progress) {
	s.metrics.add(&s.metrics.simsCompleted, uint64(p.Simulated-p.Reused-p.Failed))
	s.metrics.add(&s.metrics.simsFailed, uint64(p.Failed))
}

// handleRun serves POST /v1/runs: a body answered before is served from
// the memo, any other is decoded and resolved to one cell (a plain run) or
// one per phase (a scenario run) and answered through Server.cells.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, "bad request body")
	if !ok {
		return
	}
	prior, served := s.memo.serve(w, s.exp.Cache(), body)
	if served {
		return
	}
	var req runRequest
	if !decodeBytes(w, body, &req) {
		return
	}
	var resp any
	var got []answer
	if len(req.Scenario) > 0 {
		resp, got, ok = s.scenarioRun(w, r, &req, prior)
	} else {
		resp, got, ok = s.plainRun(w, r, &req, prior)
	}
	if !ok {
		return
	}
	enc := encodeJSON(resp)
	writeEncoded(w, enc)
	s.memo.put(body, got, enc)
}

// plainRun answers a run request naming its workload. On failure it has
// written the response and reports false.
func (s *Server) plainRun(w http.ResponseWriter, r *http.Request, req *runRequest, prior []answer) (runResponse, []answer, bool) {
	spec, status, err := resolveRun(req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return runResponse{}, nil, false
	}
	got, ok := s.cells(w, r, []cellSpec{spec}, prior, "simulation")
	if !ok {
		return runResponse{}, nil, false
	}
	return runResponse{
		Key: spec.key, Cached: got[0].cached,
		Result: cellResult(got[0].cell, area.Total(spec.cfg.Arch), spec.scaleName),
	}, got, true
}

// runMemo answers POST /v1/runs bodies it has answered before without
// decoding them. An entry maps the exact request bytes to the cells its
// answer was rendered from and the encoded 200 body. Only answers whose
// every cell was a cache hit are stored ("cached":true), and an entry is
// used only while each of its cells is still cached and unchanged. That
// makes a served entry the answer the full path would render: cells are
// immutable per key and the scenario store is add-only, so the answer to
// a body is a function of those bytes and those cells alone. Misses, 4xx
// answers and "cached":false answers are never stored.
//
// The memo is bounded: an entry larger than memoMaxEntry is not stored,
// and one that would take the total past memoBudget empties the memo
// first.
type runMemo struct {
	mu      sync.Mutex
	entries map[string]memoEntry // by request body
	size    int                  // sum of entrySize over entries
}

type memoEntry struct {
	cells []explore.Cell // one per cache lookup the full path makes, in order
	resp  []byte
}

const (
	memoMaxEntry = 16 << 10
	memoBudget   = 4 << 20
)

// entrySize is what an entry for a body of n bytes holds: the key, the
// response and the cells with their strings.
func entrySize(n int, e memoEntry) int {
	size := n + len(e.resp)
	for _, c := range e.cells {
		size += int(unsafe.Sizeof(c)) + len(c.Key) + len(c.App) + len(c.Arch) + len(c.Err)
	}
	return size
}

// serve writes the memoized answer to body if there is one and every cell
// behind it is still cached and unchanged. It looks each cell up once, as
// the full path does, so cache counters and LRU recency move as they
// would have. It stops at the first cell that fails the check and
// returns the lookups made so far, which the full path takes over
// instead of repeating them.
func (m *runMemo) serve(w http.ResponseWriter, cache *explore.Cache, body []byte) (prior []answer, served bool) {
	m.mu.Lock()
	e, ok := m.entries[string(body)]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	for i, want := range e.cells {
		if cell, hit := cache.Cell(want.Key); !hit || cell != want {
			prior = make([]answer, i+1)
			for j := range i {
				prior[j] = answer{cell: e.cells[j], cached: true}
			}
			prior[i] = answer{cell: cell, cached: hit}
			return prior, false
		}
	}
	writeEncoded(w, e.resp)
	return nil, true
}

// put stores resp as the answer to body if every cell of got was a cache
// hit and the entry fits memoMaxEntry.
func (m *runMemo) put(body []byte, got []answer, resp []byte) {
	e := memoEntry{cells: make([]explore.Cell, len(got)), resp: resp}
	for i, a := range got {
		if !a.cached {
			return
		}
		e.cells[i] = a.cell
	}
	size := entrySize(len(body), e)
	if size > memoMaxEntry {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[string(body)]; ok {
		m.size -= entrySize(len(body), old)
	}
	if m.entries == nil || m.size+size > memoBudget {
		m.entries = make(map[string]memoEntry)
		m.size = 0
	}
	m.entries[string(body)] = e
	m.size += size
}
