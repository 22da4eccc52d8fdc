package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"wavescalar/internal/cli"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/workload"
)

// Admission failures, mapped to HTTP statuses by the handlers.
var (
	// errQueueFull means the bounded admission queue rejected the job —
	// the backpressure signal behind 429 + Retry-After.
	errQueueFull = errors.New("server: admission queue full")
	// errShuttingDown means the server has stopped admitting work.
	errShuttingDown = errors.New("server: shutting down")
)

// Job states, as reported by GET /v1/jobs/{id}.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// sweepSpec is the resolved work of one POST /v1/sweeps.
type sweepSpec struct {
	points       []design.Point
	apps         []workload.Workload
	scale        workload.Scale
	threadCounts []int
}

// The two kinds of queued work.
const (
	jobCells = "cells"
	jobSweep = "sweep"
)

// job is one unit of queued work: the cells one synchronous request leads
// (each completed through its flight call), or an asynchronous sweep
// (tracked in the job registry).
type job struct {
	kind string // jobCells or jobSweep

	// Cells jobs: what to run, in request order, and whom to wake.
	cells []ledCell

	// Sweep jobs: identity, per-job cancellation and observable state.
	id     string
	sweep  *sweepSpec
	ctx    context.Context
	cancel context.CancelFunc

	// block, when non-nil, makes the worker park until it is closed —
	// a test hook for exercising queue-full and drain paths
	// deterministically.
	block chan struct{}

	mu       sync.Mutex
	state    string
	progress explore.Progress
	results  []design.SweepResult
	err      error
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *job) setProgress(p explore.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// snapshot returns a consistent view for the status endpoint.
func (j *job) snapshot() (state string, p explore.Progress, results []design.SweepResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.progress, j.results, j.err
}

// finish records a sweep's outcome.
func (j *job) finish(results []design.SweepResult, err error, cancelled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results, j.err = results, err
	switch {
	case cancelled:
		j.state = stateCancelled
	case err != nil:
		j.state = stateFailed
	default:
		j.state = stateDone
	}
}

// finished reports whether the job has reached a terminal state.
func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == stateDone || j.state == stateFailed || j.state == stateCancelled
}

// maxFinishedJobs bounds how many finished sweep jobs, results included,
// the registry keeps for GET /v1/jobs/{id}; older ones are forgotten and
// answer 404 like any unknown id. Queued and running jobs are never
// forgotten.
const maxFinishedJobs = 256

// registry tracks async jobs by id.
type registry struct {
	mu    sync.Mutex
	m     map[string]*job
	order []*job // the jobs in m, oldest first
	next  int
}

func newRegistry() *registry {
	return &registry{m: make(map[string]*job)}
}

// add registers j under a fresh id, first forgetting the oldest finished
// jobs beyond the newest maxFinishedJobs-1, so that once j finishes too
// the registry holds at most maxFinishedJobs finished jobs.
func (r *registry) add(j *job) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := 0
	for i := len(r.order) - 1; i >= 0; i-- {
		if old := r.order[i]; old.finished() {
			if kept++; kept >= maxFinishedJobs {
				delete(r.m, old.id)
			}
		}
	}
	r.order = slices.DeleteFunc(r.order, func(old *job) bool { return r.m[old.id] != old })
	r.next++
	j.id = jobID(r.next)
	r.m[j.id] = j
	r.order = append(r.order, j)
	return j.id
}

func (r *registry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.m[id]
	return j, ok
}

func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, id)
	r.order = slices.DeleteFunc(r.order, func(j *job) bool { return j.id == id })
}

// jobID renders sequential, zero-padded ids: stable, log-friendly, and
// unambiguous in a single-process daemon.
func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// sweepRequest is the body of POST /v1/sweeps: a suite, explicit app
// list, or scenario evaluated over the viable design space, optionally
// subsampled. A scenario supplies apps, scale and thread counts itself
// (and must be uniform across its phases).
type sweepRequest struct {
	Suite        string          `json:"suite,omitempty"`
	Apps         []string        `json:"apps,omitempty"`
	Scenario     json.RawMessage `json:"scenario,omitempty"`      // digest string or inline document
	Scale        string          `json:"scale,omitempty"`         // default "tiny"
	ThreadCounts []int           `json:"thread_counts,omitempty"` // default {1}; splash2 defaults to {1,4,16,64}
	MaxPoints    int             `json:"max_points,omitempty"`    // 0 = every viable design
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.MaxPoints < 0 {
		writeErr(w, http.StatusBadRequest, "max_points %d must not be negative (0 means every viable design)", req.MaxPoints)
		return
	}

	var (
		apps   []workload.Workload
		sc     workload.Scale
		counts []int
	)
	if len(req.Scenario) > 0 {
		if req.Suite != "" || len(req.Apps) > 0 || req.Scale != "" || len(req.ThreadCounts) > 0 {
			writeErr(w, http.StatusBadRequest,
				"scenario is mutually exclusive with suite, apps, scale and thread_counts (the scenario carries them)")
			return
		}
		scn, status, err := s.resolveScenario(req.Scenario)
		if err != nil {
			writeErr(w, status, "%v", err)
			return
		}
		plan, err := scenarioSweepPlan(scn)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		apps, sc, counts = plan.apps, plan.scale, plan.threads
	} else {
		suite, suiteCounts, suiteOK := workload.SuiteByName(req.Suite)
		switch {
		case len(req.Apps) > 0:
			for _, name := range req.Apps {
				wl, err := workload.ByName(name)
				if err != nil {
					writeErr(w, http.StatusNotFound, "%v", err)
					return
				}
				apps = append(apps, wl)
			}
		case req.Suite != "":
			if !suiteOK {
				writeErr(w, http.StatusBadRequest, "unknown suite %q (spec2000, mediabench, splash2, tiled)", req.Suite)
				return
			}
			apps = workload.BySuite(suite)
		default:
			writeErr(w, http.StatusBadRequest, "suite, apps or scenario is required")
			return
		}

		scaleName := req.Scale
		if scaleName == "" {
			scaleName = "tiny"
		}
		var err error
		sc, err = cli.ParseScale(scaleName)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		counts = req.ThreadCounts
		if len(counts) == 0 {
			counts = []int{1}
			if suiteOK {
				counts = suiteCounts
			}
		}
		for _, n := range counts {
			if n < 1 {
				writeErr(w, http.StatusBadRequest, "thread count %d must be positive", n)
				return
			}
		}
	}
	points := design.Viable()
	if req.MaxPoints > 0 && req.MaxPoints < len(points) {
		points = design.Subsample(points, req.MaxPoints)
	}
	if s.isClosing() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	jb := &job{
		kind:  jobSweep,
		sweep: &sweepSpec{points: points, apps: apps, scale: sc, threadCounts: counts},
		ctx:   ctx, cancel: cancel,
		state: stateQueued,
	}
	jb.progress.Total = len(points) * len(apps)
	id := s.jobs.add(jb)
	if err := s.enqueue(jb); err != nil {
		s.jobs.remove(id)
		cancel()
		s.writeAdmissionErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": id, "status": stateQueued,
		"cells": len(points) * len(apps),
		"poll":  "/v1/jobs/" + id,
	})
}

// jobProgress is the wire form of a sweep's progress.
type jobProgress struct {
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	CacheHits int     `json:"cache_hits"`
	Simulated int     `json:"simulated"`
	Remote    int     `json:"remote"` // always 0; kept so the body stays byte-identical
	Failed    int     `json:"failed"`
	SimCycles uint64  `json:"sim_cycles"`
	ElapsedS  float64 `json:"elapsed_s"`
	// Dropped is left out when no thread count was dropped, so such a
	// body is what it was before the field existed.
	Dropped *jobDrops `json:"dropped,omitempty"`
}

// jobDrops is the wire form of explore.Progress.Dropped: the thread counts
// the sweep's cells dropped from their best-thread search, by the error
// that ended the run; kinds that did not occur are left out.
type jobDrops struct {
	NotQuiesced int `json:"not_quiesced,omitempty"`
	MaxCycles   int `json:"max_cycles,omitempty"`
	Deadlock    int `json:"deadlock,omitempty"`
	Other       int `json:"other,omitempty"`
}

// sweepRow is one design's outcome in a finished sweep job.
type sweepRow struct {
	Arch     string             `json:"arch"`
	AreaMM2  float64            `json:"area_mm2"`
	MeanAIPC float64            `json:"mean_aipc"`
	AIPC     map[string]float64 `json:"aipc,omitempty"`
	Threads  map[string]int     `json:"threads,omitempty"`
	Err      string             `json:"err,omitempty"`
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	state, p, results, jerr := jb.snapshot()
	prog := jobProgress{
		Done: p.Done, Total: p.Total, CacheHits: p.CacheHits,
		Simulated: p.Simulated, Failed: p.Failed,
		SimCycles: p.SimCycles, ElapsedS: p.Elapsed.Seconds(),
	}
	if d := p.Dropped; d.Total() > 0 {
		prog.Dropped = &jobDrops{NotQuiesced: d.NotQuiesced, MaxCycles: d.MaxCycles, Deadlock: d.Deadlock, Other: d.Other}
	}
	resp := map[string]any{
		"id":       id,
		"state":    state,
		"progress": prog,
	}
	if jerr != nil {
		resp["error"] = jerr.Error()
	}
	if state == stateDone {
		rows := make([]sweepRow, len(results))
		for i, res := range results {
			rows[i] = sweepRow{
				Arch: res.Arch.String(), AreaMM2: res.Area, MeanAIPC: res.Mean,
				AIPC: res.AIPC, Threads: res.Threads,
			}
			if res.Err != nil {
				rows[i].Err = res.Err.Error()
			}
		}
		frontier := design.Frontier(results)
		front := make([]map[string]any, len(frontier))
		for i, f := range frontier {
			front[i] = map[string]any{"arch": f.Arch.String(), "area_mm2": f.Area, "aipc": f.AIPC}
		}
		resp["result"] = map[string]any{"designs": rows, "frontier": front}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	jb.cancel()
	state, _, _, _ := jb.snapshot()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": state, "status": "cancel requested"})
}
