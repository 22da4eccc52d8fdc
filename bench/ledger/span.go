package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index of the span that caused it, -1 for a root
	op         int           // spans of one operation share an id
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	nextO int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp returns a fresh operation id.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextO++
	return r.nextO
}

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), end: -1, parent: parent, op: op})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// selfTimes sums, per span name, each closed span's duration minus the
// part of it that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered, edge := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := k.start, k.end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.name] += s.end - s.start - covered
	}
	return self
}

// totalTimes sums each closed span's full duration per name, with the
// number of spans.
func totalTimes(spans []span) (map[string]time.Duration, map[string]int) {
	total, n := make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		if s.end >= 0 {
			total[s.name] += s.end - s.start
			n[s.name]++
		}
	}
	return total, n
}

// spanMicros returns the durations of the closed spans of one name, in
// microseconds.
func spanMicros(spans []span, name string) []float64 {
	var us []float64
	for _, s := range spans {
		if s.name == name && s.end >= 0 {
			us = append(us, float64((s.end-s.start).Nanoseconds())/1000)
		}
	}
	return us
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// row per operation.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"span": i, "parent": s.parent, "op": s.op},
		})
	}
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
