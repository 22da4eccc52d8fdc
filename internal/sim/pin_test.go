package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wavescalar/internal/area"
	"wavescalar/internal/workload"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/sim_pins.json from this build")

const pinsPath = "testdata/sim_pins.json"

// pinnedSim is one simulation whose whole Stats digest is pinned: a kernel
// at a scale on the Table 1 machine replicated to some clusters, or on a
// machine of its own, with a thread count and, for the geometry matrix, a
// matching-table shape.
type pinnedSim struct {
	app                  string
	scale                workload.Scale
	clusters, threads    int
	arch                 *area.Params // nil: the Table 1 machine with clusters
	k, banks, assoc, win int          // zero: the baseline's
}

func (s pinnedSim) key() string {
	sc := "small"
	if s.scale == workload.Tiny {
		sc = "tiny"
	}
	key := fmt.Sprintf("%s/%s/c%d/t%d", s.app, sc, s.clusters, s.threads)
	if s.arch != nil {
		key += "/" + strings.ReplaceAll(s.arch.String(), " ", "-")
	}
	if s.k > 0 {
		key += fmt.Sprintf("/K%d-B%d-A%d-W%d", s.k, s.banks, s.assoc, s.win)
	}
	return key
}

// The machines of the paper-trend rows: a modest one-cluster design (the
// small end of Figure 6), and one and four clusters without an L2 (the
// two ends of Figure 7's fft scaling).
var (
	trendArchSmall = area.Params{Clusters: 1, Domains: 2, PEs: 4, Virt: 32, Match: 32, L1KB: 8, L2MB: 0}
	trendArchC1    = area.Params{Clusters: 1, Domains: 4, PEs: 8, Virt: 128, Match: 128, L1KB: 8, L2MB: 0}
	trendArchC4    = area.Params{Clusters: 4, Domains: 4, PEs: 8, Virt: 32, Match: 32, L1KB: 8, L2MB: 0}
)

// pinnedSims lists the benchmark's 28 simulations (bench/ledger's sim_flow
// and sim_retry cells), then three reject-heavy kernels over a matrix of
// matching-table shapes: K and the bank count each 1, 2 and 8 (so a
// token's bank is no longer its wave modulo K, as it is on the baseline's
// K = 4 and four banks), associativity 1 and 4, and a four-token input
// window. Last come the paper-trend rows at tiny: two kernels per suite
// on Figure 6's small machine (their Table 1 runs are golden pins), and
// fft at 1, 4 and 16 threads on Figure 7's one- and four-cluster machines.
func pinnedSims() []pinnedSim {
	tiny, small := workload.Tiny, workload.Small
	sims := []pinnedSim{
		// sim_flow
		{app: "gemm-os-4x4x4", scale: tiny, clusters: 1, threads: 1},
		{app: "gemm-os-4x4x4", scale: tiny, clusters: 4, threads: 4},
		{app: "gemm-as-4x4x4", scale: tiny, clusters: 16, threads: 16},
		{app: "conv-ws-4x4x2", scale: tiny, clusters: 1, threads: 1},
		{app: "conv-ws-4x4x2", scale: tiny, clusters: 4, threads: 4},
		{app: "conv-os-4x4x2", scale: tiny, clusters: 4, threads: 4},
		{app: "conv-os-4x4x2", scale: small, clusters: 1, threads: 1},
		{app: "ocean", scale: tiny, clusters: 4, threads: 4},
		{app: "ocean", scale: tiny, clusters: 16, threads: 16},
		{app: "raytrace", scale: tiny, clusters: 16, threads: 16},
		{app: "raytrace", scale: small, clusters: 1, threads: 1},
		{app: "raytrace", scale: small, clusters: 4, threads: 4},
		{app: "fft", scale: tiny, clusters: 1, threads: 1},
		{app: "fft", scale: tiny, clusters: 4, threads: 4},
		{app: "lu", scale: tiny, clusters: 16, threads: 16},
		// sim_retry
		{app: "mpeg2encode", scale: tiny, clusters: 1, threads: 1},
		{app: "mpeg2encode", scale: tiny, clusters: 16, threads: 1},
		{app: "radix", scale: small, clusters: 1, threads: 1},
		{app: "mcf", scale: small, clusters: 1, threads: 1},
		{app: "mcf", scale: small, clusters: 16, threads: 1},
		{app: "twolf", scale: small, clusters: 1, threads: 1},
		{app: "rawdaudio", scale: small, clusters: 16, threads: 1},
		{app: "gzip", scale: small, clusters: 1, threads: 1},
		{app: "ammp", scale: small, clusters: 16, threads: 1},
		{app: "equake", scale: small, clusters: 1, threads: 1},
		{app: "equake", scale: small, clusters: 16, threads: 1},
		{app: "art", scale: small, clusters: 1, threads: 1},
		{app: "art", scale: small, clusters: 16, threads: 1},
	}
	for _, app := range []string{"radix", "mcf", "equake"} {
		for i, k := range []int{1, 2, 8} {
			for j, banks := range []int{1, 2, 8} {
				assoc := 1 + 3*((i+j)%2)
				sims = append(sims, pinnedSim{app: app, scale: small, clusters: 1, threads: 1,
					k: k, banks: banks, assoc: assoc, win: 4})
			}
		}
	}
	for _, app := range []string{"gzip", "equake", "djpeg", "rawdaudio", "fft", "lu"} {
		sims = append(sims, pinnedSim{app: app, scale: tiny, clusters: 1, threads: 1, arch: &trendArchSmall})
	}
	for _, arch := range []*area.Params{&trendArchC1, &trendArchC4} {
		for _, threads := range []int{1, 4, 16} {
			sims = append(sims, pinnedSim{app: "fft", scale: tiny, clusters: arch.Clusters, threads: threads, arch: arch})
		}
	}
	return sims
}

// TestSimDigestsPinned pins the whole Stats digest — every counter,
// including the input reject counters — of the benchmark's simulations
// and of the geometry matrix (testdata/sim_pins.json). A change that only
// makes the simulator faster must leave every one alone; a change that
// means to move them regenerates the file with
//
//	go test -run TestSimDigestsPinned ./internal/sim -args -update-pins
func TestSimDigestsPinned(t *testing.T) {
	got := map[string]string{}
	for _, s := range pinnedSims() {
		p := buildOn(t, s.app, s.scale, s.clusters, s.threads, func(cfg *Config) {
			if s.arch != nil {
				*cfg = Baseline(*s.arch)
			}
			if s.k > 0 {
				cfg.K, cfg.MatchBanks, cfg.MatchAssoc, cfg.InputWindow = s.k, s.banks, s.assoc, s.win
			}
		})
		st, err := p.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.key(), err)
		}
		got[s.key()] = st.Digest()
	}
	if *updatePins {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d simulations, the test runs %d", pinsPath, len(want), len(got))
	}
	for _, s := range pinnedSims() {
		if k := s.key(); got[k] != want[k] {
			t.Errorf("%s: digest %s, pinned %s", k, got[k], want[k])
		}
	}
}
