package server

import (
	"log"
	"net/http"

	"wavescalar/internal/cluster"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/version"
	"wavescalar/internal/workload"
)

// requireCoordinator gates the membership endpoints: only a coordinator
// owns a worker registry.
func (s *Server) requireCoordinator(w http.ResponseWriter) bool {
	if s.coord == nil {
		writeErr(w, http.StatusConflict, "not a coordinator (role %s)", s.role)
		return false
	}
	return true
}

func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	if s.isClosing() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	var req cluster.RegisterRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	if req.ID == "" || req.Addr == "" {
		writeErr(w, http.StatusBadRequest, "id and addr are required")
		return
	}
	s.coord.Registry().Register(req)
	log.Printf("server: cluster worker %s registered at %s (version %s)", req.ID, req.Addr, req.Version.Version)
	writeJSON(w, http.StatusOK, cluster.RegisterResponse{
		LeaseS:  s.coord.Registry().TTL().Seconds(),
		Version: version.Get("wsd"),
	})
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req cluster.HeartbeatRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	if !s.coord.Registry().Heartbeat(req.ID, req.Busy) {
		// Unknown lease (coordinator restart or expiry): the agent
		// re-registers on 404.
		writeErr(w, http.StatusNotFound, "unknown worker %q; re-register", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, cluster.HeartbeatResponse{OK: true, Version: version.Get("wsd")})
}

func (s *Server) handleClusterDeregister(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req cluster.DeregisterRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	found := s.coord.Registry().Deregister(req.ID)
	if found {
		log.Printf("server: cluster worker %s deregistered (graceful drain)", req.ID)
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": found, "version": version.Get("wsd")})
}

func (s *Server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	writeJSON(w, http.StatusOK, cluster.WorkersResponse{
		Role:    string(s.role),
		LeaseS:  s.coord.Registry().TTL().Seconds(),
		Version: version.Get("wsd"),
		Workers: s.coord.Registry().Snapshot(),
	})
}

// handleClusterExecute simulates one fully resolved cell on this node —
// the worker half of the dispatch protocol, though every role serves it.
// It is the run pipeline end to end (cells): cache fast path,
// singleflight, bounded admission queue (a 429 here is the signal that
// makes the coordinator requeue the cell onto another worker), and
// cache+journal write-through on completion. Fabric traffic is not charged
// tenant quotas — the originating sweep already paid at the coordinator —
// and waits without a deadline of its own: the coordinator times the
// attempt out and requeues, while the cell continues into this node's
// cache, so the retry (or any future request) is a fast hit.
func (s *Server) handleClusterExecute(w http.ResponseWriter, r *http.Request) {
	var req cluster.ExecRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	if req.Key == "" {
		writeErr(w, http.StatusBadRequest, "key is required")
		return
	}
	wl, err := workload.ByName(req.App)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	req.Config.Trace = nil
	if err := req.Config.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad config: %v", err)
		return
	}
	if err := design.ValidateRun(req.Scale, req.ThreadCounts); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !req.Config.Fault.Empty() {
		if err := req.Config.Fault.Validate(sim.FaultShape(req.Config)); err != nil {
			writeErr(w, http.StatusBadRequest, "bad fault script: %v", err)
			return
		}
	}
	key := explore.CellKey(req.Config, wl.Name, req.Scale, req.ThreadCounts)
	if key != req.Key {
		// The mixed-version guard: committing under a drifted key schema
		// would corrupt the shared result space.
		writeErr(w, http.StatusConflict,
			"cell key mismatch: computed %s for requested %s (local version %s — mixed-version fabric?)",
			key, req.Key, version.Version)
		return
	}
	spec := cellSpec{cfg: req.Config, w: wl, scale: req.Scale, threads: req.ThreadCounts, key: key}
	got, ok := s.cells(w, r, []cellSpec{spec}, nil, "cell", "", 0)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, cluster.ExecResponse{Cell: got[0].cell, Cached: got[0].cached, Version: version.Get("wsd")})
}
