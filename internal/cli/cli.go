// Package cli holds the small surface shared by the command-line tools
// and the wsd daemon: one JSON encoding convention (so wsim -json,
// wstraffic -json and the HTTP API emit consistent machine-readable
// output instead of growing per-tool ad-hoc printers), the scale-name
// parser every tool repeats, and the report row types those encoders
// fill.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"wavescalar/internal/area"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// WriteJSON encodes v to w in the shared machine-readable convention:
// one compact object per Encode call, HTML escaping off (these streams
// feed jq and dashboards, not browsers), trailing newline.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// ParseScale maps the user-facing scale names every tool accepts to
// workload scales.
func ParseScale(name string) (workload.Scale, error) {
	switch name {
	case "tiny":
		return workload.Tiny, nil
	case "small":
		return workload.Small, nil
	case "medium":
		return workload.Medium, nil
	}
	return workload.Scale{}, fmt.Errorf("unknown scale %q (tiny, small, medium)", name)
}

// NonNegative refuses a negative value on any of the named numeric flags
// of fs, naming the first it finds. On such flags 0 means "all", "none"
// or "the default", so only a negative value is an error.
func NonNegative(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return fmt.Errorf("-%s %s must not be negative", name, v)
		}
	}
	return nil
}

// Threads refuses a thread count outside [1, w.MaxThreads()]
// (workload.CheckThreads) without building the workload, so a tool can
// check it before its first line of output.
func Threads(w workload.Workload, n int) error {
	return workload.CheckThreads(w.Name, n, w.MaxThreads())
}

// RunReport is the machine-readable result of one simulation run — the
// object wsim -json emits.
type RunReport struct {
	App      string      `json:"app"`
	Scale    string      `json:"scale"`
	Threads  int         `json:"threads"`
	Arch     area.Params `json:"arch"`
	AreaMM2  float64     `json:"area_mm2"`
	AIPC     float64     `json:"aipc"`
	OpLat    float64     `json:"avg_operand_latency"`
	MemLat   float64     `json:"avg_mem_latency"`
	OpShare  float64     `json:"operand_share"`
	Messages uint64      `json:"messages"`
	Stats    *sim.Stats  `json:"stats"`
}

// NewRunReport fills a RunReport from a completed run.
func NewRunReport(app, scale string, threads int, arch area.Params, st *sim.Stats) RunReport {
	return RunReport{
		App: app, Scale: scale, Threads: threads, Arch: arch,
		AreaMM2: area.Total(arch),
		AIPC:    st.AIPC(), OpLat: st.AvgOperandLatency(), MemLat: st.AvgMemLatency(),
		OpShare: st.OperandShare(), Messages: st.TrafficTotal(), Stats: st,
	}
}

// TrafficRow is one Figure-8 measurement — the object wstraffic -json
// emits per (workload, machine size): the share of messages at each
// interconnect level plus the operand/memory split and latencies.
type TrafficRow struct {
	App      string `json:"app"`
	Suite    string `json:"suite"`
	Clusters int    `json:"clusters"`
	Threads  int    `json:"threads"`
	Scale    string `json:"scale"`
	Messages uint64 `json:"messages"`
	// Share is the percentage of messages at each level, keyed pe, pod,
	// domain, cluster, grid.
	Share        map[string]float64 `json:"share_pct"`
	OperandShare float64            `json:"operand_share"`
	OpLat        float64            `json:"avg_operand_latency"`
	MemLat       float64            `json:"avg_mem_latency"`
}

// NewTrafficRow fills a TrafficRow from a completed run.
func NewTrafficRow(w workload.Workload, clusters, threads int, scale string, st *sim.Stats) TrafficRow {
	levels := map[string]sim.TrafficLevel{
		"pe": sim.LevelSelf, "pod": sim.LevelPod, "domain": sim.LevelDomain,
		"cluster": sim.LevelCluster, "grid": sim.LevelGrid,
	}
	share := make(map[string]float64, len(levels))
	if total := st.TrafficTotal(); total > 0 {
		for name, l := range levels {
			n := st.Traffic[l][sim.ClassOperand] + st.Traffic[l][sim.ClassMemory]
			share[name] = 100 * float64(n) / float64(total)
		}
	}
	return TrafficRow{
		App: w.Name, Suite: w.Suite.String(), Clusters: clusters, Threads: threads,
		Scale: scale, Messages: st.TrafficTotal(), Share: share,
		OperandShare: st.OperandShare(),
		OpLat:        st.AvgOperandLatency(), MemLat: st.AvgMemLatency(),
	}
}
