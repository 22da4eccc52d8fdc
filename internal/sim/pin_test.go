package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"wavescalar/internal/workload"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/sim_pins.json from this build")

const pinsPath = "testdata/sim_pins.json"

// pinnedSim is one simulation whose whole Stats digest is pinned: a kernel
// at a scale on the Table 1 machine replicated to some clusters, with a
// thread count and, for the geometry matrix, a matching-table shape.
type pinnedSim struct {
	app                  string
	scale                workload.Scale
	clusters, threads    int
	k, banks, assoc, win int // zero: the baseline's
}

func (s pinnedSim) key() string {
	sc := "small"
	if s.scale == workload.Tiny {
		sc = "tiny"
	}
	key := fmt.Sprintf("%s/%s/c%d/t%d", s.app, sc, s.clusters, s.threads)
	if s.k > 0 {
		key += fmt.Sprintf("/K%d-B%d-A%d-W%d", s.k, s.banks, s.assoc, s.win)
	}
	return key
}

// pinnedSims lists the benchmark's 28 simulations (bench/ledger's sim_flow
// and sim_retry cells), then three reject-heavy kernels over a matrix of
// matching-table shapes: K and the bank count each 1, 2 and 8 (so a
// token's bank is no longer its wave modulo K, as it is on the baseline's
// K = 4 and four banks), associativity 1 and 4, and a four-token input
// window.
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
