package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wavescalar/internal/version"
)

// metrics is a minimal Prometheus-exposition registry. The repo takes no
// dependencies, so the daemon hand-rolls the text format (which is the
// stable, officially documented wire format): counters for requests,
// simulations, jobs and dedup; histograms for request latency; everything
// else is sampled live at scrape time by the /metrics handler and handed
// to write as rows.
type metrics struct {
	mu sync.Mutex
	// requests[path][method|code] — request counts by route and outcome.
	requests map[string]map[string]uint64
	// latency[path] — request duration histograms by route.
	latency map[string]*histogram

	simsCompleted, simsFailed, simsCancelled uint64
	jobsCompleted, jobsFailed, jobsCancelled uint64
	dedupShared, rejectedFull                uint64
	journalErrors                            uint64
	panics                                   uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[string]uint64),
		latency:  make(map[string]*histogram),
	}
}

// observeRequest records one finished HTTP request.
func (m *metrics) observeRequest(path, method string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byOutcome := m.requests[path]
	if byOutcome == nil {
		byOutcome = make(map[string]uint64)
		m.requests[path] = byOutcome
	}
	byOutcome[fmt.Sprintf("%s|%d", method, code)]++
	h := m.latency[path]
	if h == nil {
		h = newHistogram()
		m.latency[path] = h
	}
	h.observe(seconds)
}

func (m *metrics) add(counter *uint64, n uint64) {
	m.mu.Lock()
	*counter += n
	m.mu.Unlock()
}

// latencyBuckets are the histogram upper bounds in seconds: simulations
// range from sub-millisecond cache hits to multi-second medium-scale runs.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

type histogram struct {
	counts []uint64 // one per bucket, non-cumulative
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets))}
}

// observe records one value. Callers hold metrics.mu.
func (h *histogram) observe(v float64) {
	for i, le := range latencyBuckets {
		if v <= le {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.total++
}

// series is one non-histogram metric family of the exposition. Every such
// family on /metrics — the registry's counters, the live-sampled gauges
// and build info — is one of these rows, rendered by appendSeries.
type series struct {
	name, help, typ string
	samples         []sample
}

// sample is one line of a series. value is a uint64, an int or a float64:
// %v renders the integers in decimal and the float as %g.
type sample struct {
	labels string // `{k="v",...}` from labels(), or "" on an unlabelled series
	value  any
}

func counter(name, help string, v any) series {
	return series{name, help, "counter", []sample{{"", v}}}
}

func gauge(name, help string, v any) series {
	return series{name, help, "gauge", []sample{{"", v}}}
}

// labels renders key, value pairs as a Prometheus label set.
func labels(kv ...string) string {
	b := []byte{'{'}
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, kv[i]...), '=')
		b = strconv.AppendQuote(b, kv[i+1])
	}
	return string(append(b, '}'))
}

// appendSeries renders rows in Prometheus text exposition format onto b.
func appendSeries(b []byte, rows ...series) []byte {
	for _, s := range rows {
		b = append(append(append(append(append(b, "# HELP "...), s.name...), ' '), s.help...), '\n')
		b = append(append(append(append(append(b, "# TYPE "...), s.name...), ' '), s.typ...), '\n')
		for _, sm := range s.samples {
			b = fmt.Appendf(append(append(b, s.name...), sm.labels...), " %v\n", sm.value)
		}
	}
	return b
}

// write renders the whole exposition, deterministically ordered: request
// counts, the latency histograms, the registry's counters, then rest (what
// the /metrics handler samples live at scrape time).
func (m *metrics) write(w io.Writer, rest []series) {
	m.mu.Lock()
	requests := series{name: "wsd_http_requests_total", help: "HTTP requests by route, method and status code.", typ: "counter"}
	for _, path := range sortedKeys(m.requests) {
		byOutcome := m.requests[path]
		for _, k := range sortedKeys(byOutcome) {
			method, code, _ := strings.Cut(k, "|")
			requests.samples = append(requests.samples,
				sample{labels("path", path, "method", method, "code", code), byOutcome[k]})
		}
	}
	b := appendSeries(make([]byte, 0, 16<<10), requests)

	b = append(b, "# HELP wsd_http_request_duration_seconds HTTP request latency by route.\n"...)
	b = append(b, "# TYPE wsd_http_request_duration_seconds histogram\n"...)
	for _, path := range sortedKeys(m.latency) {
		h := m.latency[path]
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			b = fmt.Appendf(b, "wsd_http_request_duration_seconds_bucket{path=%q,le=\"%g\"} %d\n",
				path, le, cum)
		}
		b = fmt.Appendf(b, "wsd_http_request_duration_seconds_bucket{path=%q,le=\"+Inf\"} %d\n", path, h.total)
		b = fmt.Appendf(b, "wsd_http_request_duration_seconds_sum{path=%q} %g\n", path, h.sum)
		b = fmt.Appendf(b, "wsd_http_request_duration_seconds_count{path=%q} %d\n", path, h.total)
	}

	byOutcome := func(completed, failed, cancelled uint64) []sample {
		return []sample{
			{`{outcome="completed"}`, completed},
			{`{outcome="failed"}`, failed},
			{`{outcome="cancelled"}`, cancelled},
		}
	}
	b = appendSeries(b,
		series{"wsd_sims_total", "Simulations executed by the worker pool, by outcome.", "counter",
			byOutcome(m.simsCompleted, m.simsFailed, m.simsCancelled)},
		series{"wsd_jobs_total", "Async sweep jobs finished, by outcome.", "counter",
			byOutcome(m.jobsCompleted, m.jobsFailed, m.jobsCancelled)},
		counter("wsd_singleflight_shared_total", "Run requests that piggybacked on an identical in-flight simulation.", m.dedupShared),
		counter("wsd_admission_rejected_total", "Requests rejected with 429 because the queue was full.", m.rejectedFull),
		counter("wsd_journal_errors_total", "Journal appends that failed (results still served from memory).", m.journalErrors),
		counter("wsd_panics_total", "Handler panics recovered by the middleware (each served a 500).", m.panics),
	)
	m.mu.Unlock()
	w.Write(appendSeries(b, rest...)) // an error here is the scraper hanging up

}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.exp.Cache().Stats()
	body := map[string]any{
		"status":         "ok",
		"version":        version.Get("wsd"),
		"role":           "single", // constant, so the body stays byte-identical
		"workers":        s.workers,
		"busy":           s.busy.Load(),
		"queue_depth":    len(s.queue),
		"queue_capacity": s.queueDepth,
		"cache": map[string]any{
			"cells": st.Cells, "limit": st.Limit,
			"hits": st.Hits, "misses": st.Misses,
			"evictions": st.Evictions, "hit_ratio": st.HitRatio(),
		},
		"uptime_s": time.Since(s.start).Seconds(),
	}
	if s.isClosing() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.exp.Cache().Stats()
	bi := version.Get("wsd")
	rows := []series{
		gauge("wsd_queue_depth", "Jobs waiting in the admission queue.", float64(len(s.queue))),
		gauge("wsd_queue_capacity", "Admission queue bound.", float64(s.queueDepth)),
		gauge("wsd_workers", "Worker pool size.", float64(s.workers)),
		gauge("wsd_workers_busy", "Workers executing a job right now.", float64(s.busy.Load())),
		gauge("wsd_cache_entries", "Cells in the result cache.", float64(st.Cells)),
		gauge("wsd_cache_limit", "LRU cap on the result cache (0 = unlimited).", float64(st.Limit)),
		counter("wsd_cache_hits_total", "Result-cache lookups answered without simulating.", st.Hits),
		counter("wsd_cache_misses_total", "Result-cache lookups that required work.", st.Misses),
		counter("wsd_cache_evictions_total", "Cells evicted by the LRU limit.", st.Evictions),
		// The constant role label keeps the series byte-identical.
		{"wsd_build_info", "Build identity of this daemon (value is always 1).", "gauge", []sample{
			{labels("version", bi.Version, "commit", bi.Commit, "go", bi.Go, "role", "single"), 1}}},
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, rows)
}
