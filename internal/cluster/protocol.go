// Package cluster is the distributed sweep fabric: the pieces that turn
// one wsd daemon into many sharing a single content-addressed result
// space. A coordinator accepts sweeps through the ordinary /v1/sweeps
// API, shards their cells across registered workers by rendezvous
// hashing on explore.CellKey, and streams completed cells back into
// its own cache and journal — so any node (and any warm restart) can
// answer any cached cell.
//
// The design leans on two properties the rest of the repo already
// guarantees:
//
//   - Simulations are deterministic and cells are content-addressed: the
//     same key always denotes the same result bytes, so retries,
//     duplicate dispatches, and repeated commits are all idempotent —
//     at-most-once *commit* falls out of the addressing scheme rather
//     than from distributed coordination.
//   - The journal is an append-only JSONL log with idempotent replay, so
//     "one shared result space" is the coordinator's journal: every cell
//     the coordinator dispatches comes back in its execute response and is
//     committed there. A draining worker finishes the cells it is running
//     and answers 503 for the ones still queued, which the coordinator
//     requeues onto their next owner.
//
// Robustness model:
//
//   - Workers register and then heartbeat; the lease table (Registry) is
//     the only membership state, and a worker that misses its lease owns
//     nothing from that instant: its in-flight cells fail over, and only
//     the cells it owned move (rendezvous hashing).
//   - Cell dispatch retries across the cell's distinct owners, in rank
//     order, with exponential backoff, bounded attempts, and a
//     per-attempt timeout that also fails over *slow* workers, not just
//     dead ones.
//   - When every attempt fails (or no workers are registered), the
//     coordinator's exploration engine simulates the cell locally: a
//     degraded fabric loses speed, never results.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/version"
	"wavescalar/internal/workload"
)

// RegisterRequest is the body of POST /v1/cluster/register: a worker
// announcing itself (or re-announcing after a coordinator restart —
// registration is idempotent on ID).
type RegisterRequest struct {
	// ID is the worker's stable identity; re-registering an ID replaces
	// its address and resets its lease.
	ID string `json:"id"`
	// Addr is the worker's reachable base URL, e.g. "http://worker1:8080".
	Addr string `json:"addr"`
	// Version is the worker's build identity, kept so mixed-version
	// fabrics are diagnosable from GET /v1/cluster/workers.
	Version version.Info `json:"version"`
}

// RegisterResponse acknowledges a registration with the coordinator's
// lease terms and build identity.
type RegisterResponse struct {
	// LeaseS is how long the registration lives without a heartbeat.
	LeaseS float64 `json:"lease_s"`
	// Version is the coordinator's build identity.
	Version version.Info `json:"version"`
}

// HeartbeatRequest is the body of POST /v1/cluster/heartbeat, renewing a
// worker's lease.
type HeartbeatRequest struct {
	ID string `json:"id"`
	// Busy is the worker's self-reported in-flight simulation count
	// (informational; the coordinator tracks its own dispatch counts).
	Busy int `json:"busy"`
}

// HeartbeatResponse acknowledges a lease renewal. A worker whose ID is
// unknown (coordinator restarted, or lease already expired) gets a 404
// instead and must re-register.
type HeartbeatResponse struct {
	OK      bool         `json:"ok"`
	Version version.Info `json:"version"`
}

// DeregisterRequest is the body of POST /v1/cluster/deregister — the
// graceful half of lease expiry, sent by a draining worker.
type DeregisterRequest struct {
	ID string `json:"id"`
}

// ExecRequest is the body of POST /v1/cluster/execute: one cell for a
// worker to simulate. It carries both the content-addressed key and the
// inputs it was derived from; the worker recomputes the key and refuses
// a mismatch, so a mixed-version fabric whose key schema drifted fails
// loudly instead of committing cells under the wrong address.
type ExecRequest struct {
	Key string `json:"key"`
	// Config is the full resolved simulator configuration (Trace is
	// always nil on the wire; the fault script travels by value).
	Config       sim.Config     `json:"config"`
	App          string         `json:"app"`
	Scale        workload.Scale `json:"scale"`
	ThreadCounts []int          `json:"thread_counts"`
}

// ExecResponse returns the completed cell (possibly from the worker's
// own cache) plus the worker's build identity.
type ExecResponse struct {
	Cell    explore.Cell `json:"cell"`
	Cached  bool         `json:"cached"`
	Version version.Info `json:"version"`
}

// WorkersResponse is the body of GET /v1/cluster/workers.
type WorkersResponse struct {
	Role    string       `json:"role"`
	LeaseS  float64      `json:"lease_s"`
	Version version.Info `json:"version"`
	Workers []WorkerInfo `json:"workers"`
}

// statusError carries a non-2xx response through the error path.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

func isStatus(err error, code int) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == code
}

// postJSON is the fabric's one HTTP call: POST in, marshalled, to url and
// decode a 2xx JSON answer into out (nil discards it). Any other status
// comes back as a *statusError holding the first 512 bytes of the answer.
func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status alone is an answer
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}
