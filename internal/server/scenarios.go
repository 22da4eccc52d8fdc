// Scenario endpoints: POST /v1/scenarios stores validated scenario
// documents content-addressed by digest, and runs/sweeps accept either a
// stored digest or an inline document wherever a workload could go.
//
// A scenario never invents a new cache-key schema. Each phase lowers to
// an ordinary (config, workload, scale, threads) cell whose key is
// explore.CellKey — the same key a direct Go invocation or a plain
// /v1/runs request would compute — so the cache, journal and singleflight
// serve scenario traffic unchanged, and a scenario re-run is a pure cache
// hit.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"slices"

	"wavescalar/internal/area"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/scenario"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// WithScenarioStore persists the scenario store to a JSONL file
// alongside the journal: every newly created scenario is appended as
// one canonical JSON line, and existing lines are reloaded at startup —
// so a warm restart serves GET /v1/scenarios/{digest} (and runs by
// digest) for everything clients ever stored. Storage stays
// content-addressed: reloading re-derives each digest from the
// document, and duplicate lines (from overlapping daemons sharing a
// file) collapse into one entry.
func WithScenarioStore(path string) Option {
	return func(s *Server) error {
		if path == "" {
			return fmt.Errorf("%w: empty scenario-store path", design.ErrBadOptions)
		}
		s.scnPath = path
		return nil
	}
}

// openScenarioStore reloads and opens the scenario store configured by
// WithScenarioStore (a no-op without it). Reload is salvage, not
// verification: a line that does not parse — a record torn by a crash
// mid-append, a truncated tail, stray corruption from a shared file —
// is skipped with a warning and every intact record is kept. The store
// is content-addressed, so dropping a broken line can never serve a
// wrong document (clients re-POST and get the same digest back), while
// failing startup over one bad byte would take the whole daemon down
// with it. Duplicate lines collapse onto one digest as always.
func (s *Server) openScenarioStore() error {
	if s.scnPath == "" {
		return nil
	}
	f, err := os.Open(s.scnPath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: open scenario store: %w", err)
	}
	if err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		line, skipped := 0, 0
		for sc.Scan() {
			line++
			if len(sc.Bytes()) == 0 {
				continue
			}
			doc, perr := scenario.Parse(sc.Bytes())
			if perr != nil {
				skipped++
				log.Printf("server: scenario store %s line %d: skipping unreadable record: %v", s.scnPath, line, perr)
				continue
			}
			s.scenarios[doc.Digest()] = doc
		}
		serr := sc.Err()
		f.Close()
		if serr != nil {
			// An over-long or unreadable tail: keep everything parsed so
			// far rather than failing startup over it.
			log.Printf("server: scenario store %s: stopping reload after line %d: %v", s.scnPath, line, serr)
		}
		if skipped > 0 {
			log.Printf("server: scenario store %s: reloaded %d scenarios, skipped %d unreadable lines", s.scnPath, len(s.scenarios), skipped)
		}
	}
	s.scnFile, err = os.OpenFile(s.scnPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: open scenario store for append: %w", err)
	}
	return nil
}

// appendScenario persists one newly created scenario as a canonical
// JSON line. Callers hold scnMu (the same lock ordering as the map
// insert, so concurrent creates serialize their lines). Failures are
// durability problems, not serving problems: the scenario stays served
// from memory and the error surfaces as wsd_journal_errors_total.
func (s *Server) appendScenario(doc *scenario.Scenario) {
	if s.scnFile == nil {
		return
	}
	b, err := json.Marshal(doc)
	if err == nil {
		_, err = s.scnFile.Write(append(b, '\n'))
	}
	if err != nil {
		log.Printf("server: scenario store append: %v", err)
		s.metrics.add(&s.metrics.journalErrors, 1)
	}
}

// scenarioResponse is the wire form of a stored scenario.
type scenarioResponse struct {
	Digest  string `json:"digest"`
	Created bool   `json:"created"`
	Name    string `json:"name,omitempty"`
	Phases  int    `json:"phases"`
}

// handleScenarioPost validates and stores one scenario document. Storage
// is content-addressed: re-posting an identical document (any formatting)
// answers created=false with the same digest — the dedup signal clients
// and CI rely on.
func (s *Server) handleScenarioPost(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, "reading body")
	if !ok {
		return
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	phases, err := sc.ResolvePhases()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	digest := sc.Digest()
	s.scnMu.Lock()
	_, exists := s.scenarios[digest]
	if !exists {
		s.scenarios[digest] = sc
		s.appendScenario(sc)
	}
	s.scnMu.Unlock()
	status := http.StatusOK
	if !exists {
		status = http.StatusCreated
	}
	writeJSON(w, status, scenarioResponse{
		Digest: digest, Created: !exists, Name: sc.Name, Phases: len(phases),
	})
}

func (s *Server) handleScenarioGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	s.scnMu.Lock()
	sc, ok := s.scenarios[digest]
	s.scnMu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown scenario %q", digest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"digest": digest, "scenario": sc})
}

// resolveScenario turns the "scenario" field of a run or sweep request —
// a digest string referencing a stored document, or an inline document —
// into a parsed scenario. The returned status is meaningful only on
// error.
func (s *Server) resolveScenario(raw json.RawMessage) (*scenario.Scenario, int, error) {
	var digest string
	if err := json.Unmarshal(raw, &digest); err == nil {
		s.scnMu.Lock()
		sc, ok := s.scenarios[digest]
		s.scnMu.Unlock()
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("unknown scenario %s (POST the document to /v1/scenarios first, or inline it)", digest)
		}
		return sc, 0, nil
	}
	sc, err := scenario.Parse(raw)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return sc, 0, nil
}

// lowerScenario resolves the scenario's phases against a base
// configuration, and every phase gets its cell key. Each phase is the
// same cellSpec a plain run resolves to, so key computation and execution
// are shared verbatim.
func lowerScenario(sc *scenario.Scenario, base sim.Config) ([]cellSpec, error) {
	phases, err := sc.ResolvePhases()
	if err != nil {
		return nil, err
	}
	specs := make([]cellSpec, len(phases))
	for i, ph := range phases {
		specs[i] = cellSpec{
			cfg: base, w: ph.Workload, scale: ph.Scale, threads: ph.Threads,
			key:       explore.CellKey(base, ph.Workload.Name, ph.Scale, ph.Threads),
			scaleName: ph.ScaleName, phase: ph.Name,
		}
	}
	return specs, nil
}

// scenarioPhaseResult is one phase's outcome in a scenario run response.
type scenarioPhaseResult struct {
	Phase  string    `json:"phase"`
	Key    string    `json:"key"`
	Cached bool      `json:"cached"`
	Result runResult `json:"result"`
}

type scenarioRunResponse struct {
	Scenario string                `json:"scenario"`
	Cached   bool                  `json:"cached"` // every phase served from cache
	Phases   []scenarioPhaseResult `json:"phases"`
}

// scenarioRun answers a POST /v1/runs body that references a scenario.
// The scenario carries workload, scale and threads, so the plain
// per-run fields must be absent; only the machine config and timeout
// still come from the request. On failure it has written the response
// and reports false.
func (s *Server) scenarioRun(w http.ResponseWriter, r *http.Request, req *runRequest, prior []answer) (scenarioRunResponse, []answer, bool) {
	fail := func(status int, format string, args ...any) (scenarioRunResponse, []answer, bool) {
		writeErr(w, status, format, args...)
		return scenarioRunResponse{}, nil, false
	}
	if req.Workload != "" || req.Scale != "" || req.Threads != 0 {
		return fail(http.StatusBadRequest,
			"scenario is mutually exclusive with workload, scale and threads (the scenario carries them)")
	}
	sc, status, err := s.resolveScenario(req.Scenario)
	if err != nil {
		return fail(status, "%v", err)
	}
	cfg, err := req.Config.resolve()
	if err != nil {
		return fail(http.StatusBadRequest, "bad config: %v", err)
	}
	specs, err := lowerScenario(sc, cfg)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	// Phases go through the same pipeline as plain runs, in order: a
	// re-run is answered entirely from the cache, and a phase someone else
	// is already simulating is waited for, not simulated twice.
	got, ok := s.cells(w, r, specs, prior, "scenario")
	if !ok {
		return scenarioRunResponse{}, nil, false
	}
	areaMM2 := area.Total(cfg.Arch)
	resp := scenarioRunResponse{Scenario: sc.Digest(), Cached: true}
	for i, spec := range specs {
		if !got[i].cached {
			resp.Cached = false
		}
		resp.Phases = append(resp.Phases, scenarioPhaseResult{
			Phase: spec.phase, Key: spec.key, Cached: got[i].cached,
			Result: cellResult(got[i].cell, areaMM2, spec.scaleName),
		})
	}
	return resp, got, true
}

// scenarioSweep is the sweep a scenario defines: the distinct phase
// workloads as the app list, plus the (required uniform) scale and thread
// counts.
type scenarioSweep struct {
	apps    []workload.Workload
	scale   workload.Scale
	threads []int
}

// scenarioSweepPlan extracts the sweep axes from a scenario. Per-phase
// scale/thread overrides would make each phase a different sweep —
// reject them here rather than silently evaluating only one.
func scenarioSweepPlan(sc *scenario.Scenario) (scenarioSweep, error) {
	phases, err := sc.ResolvePhases()
	if err != nil {
		return scenarioSweep{}, err
	}
	first := phases[0]
	for _, ph := range phases[1:] {
		if ph.Scale != first.Scale || !slices.Equal(ph.Threads, first.Threads) {
			return scenarioSweep{}, errScenarioSweep
		}
	}
	plan := scenarioSweep{scale: first.Scale, threads: first.Threads}
	seen := map[string]bool{}
	for _, ph := range phases {
		if !seen[ph.Workload.Name] {
			seen[ph.Workload.Name] = true
			plan.apps = append(plan.apps, ph.Workload)
		}
	}
	return plan, nil
}

var errScenarioSweep = errors.New("scenario sweeps need a uniform scale and threads across phases (per-phase overrides describe different sweeps)")
