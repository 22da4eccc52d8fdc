package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"time"

	"wavescalar/internal/cli"
)

// routes builds the instrumented mux. Every route is wrapped so request
// counts and latency histograms are labeled by pattern, not raw URL (no
// cardinality explosion from job ids).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /v1/workloads", s.handleWorkloads)
	handle("GET /v1/designs", s.handleDesigns)
	handle("POST /v1/runs", s.handleRun)
	handle("POST /v1/sweeps", s.handleSweep)
	handle("POST /v1/scenarios", s.handleScenarioPost)
	handle("GET /v1/scenarios/{digest}", s.handleScenarioGet)
	handle("GET /v1/jobs/{id}", s.handleJobGet)
	handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return mux
}

// retryAfter is the Retry-After hint, in seconds, on every 429.
const retryAfter = "2"

// writeAdmissionErr maps an admission failure (full queue, shutdown) onto
// the API's backpressure responses: a full queue is 429 queue_full with a
// Retry-After hint, shutdown a 503.
func (s *Server) writeAdmissionErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.metrics.add(&s.metrics.rejectedFull, 1)
		w.Header().Set("Retry-After", retryAfter)
		writeErrCode(w, http.StatusTooManyRequests, "queue_full", "admission queue full; retry")
	default:
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
	}
}

// statusWriter captures the response code for metrics and whether any
// bytes have been written — the panic middleware can only substitute a
// 500 while the response is still untouched.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with request metrics and panic recovery. A
// panicking handler must not take the daemon down with it: the panic is
// logged with a request id and a stack trace, counted in
// wsd_panics_total, and — if the handler had not started the response —
// answered with a 500 carrying the same request id so operators can
// correlate the client-visible error with the server log.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				id := s.reqSeq.Add(1)
				s.metrics.add(&s.metrics.panics, 1)
				log.Printf("server: panic serving %s (request %d): %v\n%s", pattern, id, rec, debug.Stack())
				if !sw.wrote {
					writeErr(sw, http.StatusInternalServerError, "internal error (request %d)", id)
				}
			}
			s.metrics.observeRequest(pattern, r.Method, sw.code, time.Since(start).Seconds())
		}()
		h(sw, r)
	})
}

// writeJSON responds with one JSON object in the shared CLI convention.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	cli.WriteJSON(w, v)
}

// encodeJSON is the body writeJSON would send for v, for the responses
// that are encoded once and served many times.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	if err := cli.WriteJSON(&buf, v); err != nil {
		panic(err) // only static, encodable values reach here
	}
	return buf.Bytes()
}

// writeEncoded responds 200 with a body from encodeJSON.
func writeEncoded(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// apiError is the API's uniform error envelope: every non-2xx response
// body is {"error":{"code","message"}}, where code is a stable
// machine-readable slug and message is for humans.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errCode maps an HTTP status to its default error code. Handlers that
// need a more specific code (queue_full on a 429) use writeErrCode
// directly.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// writeErr responds with the API's uniform error envelope, deriving the
// code from the status.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeErrCode(w, code, errCode(code), fmt.Sprintf(format, args...))
}

// writeErrCode responds with an explicit error code.
func writeErrCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]apiError{"error": {Code: code, Message: msg}})
}

// maxBodyBytes bounds every JSON request body.
const maxBodyBytes = 1 << 20

// readBody reads the request's whole body, at most maxBodyBytes of it. On
// failure it has answered (413, or 400 prefixed with what) and reports
// false. Every POST endpoint reads its body here, so the ceiling holds
// however little of the body the endpoint goes on to parse.
func readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeBodyErr(w, what, err)
		return nil, false
	}
	return body, true
}

// decodeBody reads the request's body (readBody) and decodes its first
// JSON value into v, rejecting unknown fields; bytes after that value are
// ignored. On failure it has answered (413 or 400) and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r, "bad request body")
	return ok && decodeBytes(w, body, v)
}

// decodeBytes is decodeBody's second half, for a body already read.
func decodeBytes(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyErr(w, "bad request body", err)
		return false
	}
	return true
}

// writeBodyErr answers a failed body read or decode: 413 when the body ran
// past its limit, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, "%s: %v", what, err)
}
