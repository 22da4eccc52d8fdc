package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"

	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// TestJobProgressDropped: a sweep job's progress reports the thread counts
// its cells dropped, by error kind (explore.Progress.Dropped), and a body
// with none is byte for byte the body the daemon answered before the
// field existed. The drops are those of a best-thread search over {1, 4}
// that drops fft's four-thread run: each fft thread runs the whole kernel,
// so on the baseline machine at tiny scale t4 runs longer than t1, and a
// cycle cap between the two ends t4 with ErrMaxCycles (as design's
// TestBestThreadsCountsDrops does). A sweep cannot set the cap, so the test
// hands the search's drops to the job the way a sweep's progress callback
// does.
func TestJobProgressDropped(t *testing.T) {
	w, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(workload.Tiny)
	cfg := sim.Baseline(sim.BaselineArch())
	cycles := map[int]uint64{}
	for _, n := range []int{1, 4} {
		st, err := design.RunOnceContext(context.Background(), cfg, inst, n)
		if err != nil {
			t.Fatal(err)
		}
		cycles[n] = st.Cycles
	}
	cfg.MaxCycles = (cycles[1] + cycles[4]) / 2
	br, err := design.BestThreadsContext(context.Background(), cfg, inst, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if br.Threads != 1 || br.Dropped != (design.Drops{MaxCycles: 1}) {
		t.Fatalf("fixture: best %d threads, dropped %+v; want t4 dropped with ErrMaxCycles", br.Threads, br.Dropped)
	}
	srv, ts := newTestServer(t)
	for _, tc := range []struct {
		name    string
		dropped design.Drops
		want    string
	}{
		{"no drops", design.Drops{},
			`{"id":%q,"progress":{"done":1,"total":1,"cache_hits":0,"simulated":1,"remote":0,"failed":0,"sim_cycles":%d,"elapsed_s":0},"state":"running"}`},
		{"fft t4 dropped", br.Dropped,
			`{"id":%q,"progress":{"done":1,"total":1,"cache_hits":0,"simulated":1,"remote":0,"failed":0,"sim_cycles":%d,"elapsed_s":0,"dropped":{"max_cycles":1}},"state":"running"}`},
	} {
		jb := &job{kind: jobSweep, state: stateRunning}
		id := srv.jobs.add(jb)
		jb.setProgress(explore.Progress{Done: 1, Total: 1, Simulated: 1, SimCycles: br.SimCycles, Dropped: tc.dropped})
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf(tc.want, id, br.SimCycles) + "\n"; string(got) != want {
			t.Errorf("%s: GET /v1/jobs/%s = %s; want %s", tc.name, id, got, want)
		}
	}
}
