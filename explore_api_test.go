package wavescalar_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wavescalar"
	"wavescalar/internal/design"
)

// TestRunWorkloadContextDefaults pins the API contract: explicit baseline
// options and the all-defaults form produce identical results.
func TestRunWorkloadContextDefaults(t *testing.T) {
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())
	explicit, err := wavescalar.RunWorkloadContext(context.Background(), "gzip",
		wavescalar.WithConfig(cfg), wavescalar.AtScale(wavescalar.ScaleTiny), wavescalar.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}

	// Defaults: no options means baseline config, tiny scale, one thread.
	def, err := wavescalar.RunWorkloadContext(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if def.AIPC() != explicit.AIPC() || def.Cycles != explicit.Cycles {
		t.Errorf("default options diverge from explicit baseline: AIPC %v vs %v, cycles %d vs %d",
			def.AIPC(), explicit.AIPC(), def.Cycles, explicit.Cycles)
	}
}

func TestRunWorkloadContextValidation(t *testing.T) {
	_, err := wavescalar.RunWorkloadContext(context.Background(), "gzip", wavescalar.WithThreads(0))
	if !errors.Is(err, wavescalar.ErrBadOptions) {
		t.Errorf("zero threads: error = %v, want ErrBadOptions", err)
	}
	// A count over the kernel's limit is refused naming the limit, not
	// panicked on when the instance binds its threads.
	_, err = wavescalar.RunWorkloadContext(context.Background(), "gzip", wavescalar.WithThreads(4))
	if !errors.Is(err, wavescalar.ErrBadOptions) || !strings.Contains(err.Error(), `[1, 1], the limit of "gzip"`) {
		t.Errorf("4 threads on gzip: error = %v, want ErrBadOptions naming gzip's limit of 1", err)
	}
	_, err = wavescalar.RunWorkloadContext(context.Background(), "gzip", wavescalar.AtScale(wavescalar.Scale{}))
	if !errors.Is(err, wavescalar.ErrBadOptions) {
		t.Errorf("degenerate scale: error = %v, want ErrBadOptions", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = wavescalar.RunWorkloadContext(ctx, "gzip")
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: error = %v, want context.Canceled", err)
	}
}

// TestBuildProcessorMatchesRunWorkload checks the two public entry points
// agree: hand-building a processor from a workload instance produces the
// same run as RunWorkloadContext over the same configuration.
func TestBuildProcessorMatchesRunWorkload(t *testing.T) {
	w, err := wavescalar.WorkloadByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(wavescalar.ScaleTiny)
	cfg := wavescalar.Baseline(wavescalar.BaselineArch())

	proc, err := wavescalar.BuildProcessor(inst.Prog,
		wavescalar.ProcConfig(cfg),
		wavescalar.ProcParams(inst.Params(1)...),
		wavescalar.ProcMemory(wavescalar.Memory(inst.Mem)))
	if err != nil {
		t.Fatal(err)
	}
	manual, err := proc.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ran, err := runWorkload(cfg, "gzip", wavescalar.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if manual.AIPC() != ran.AIPC() || manual.Cycles != ran.Cycles {
		t.Errorf("BuildProcessor diverges from RunWorkloadContext: AIPC %v vs %v",
			manual.AIPC(), ran.AIPC())
	}
}

// TestNewExplorerRootAPI drives the re-exported engine end to end: sweep,
// journal, resume, and agreement of every cell with a direct
// design.BestThreadsContext of it.
func TestNewExplorerRootAPI(t *testing.T) {
	points := wavescalar.ViableDesigns()[:2]
	w, err := wavescalar.WorkloadByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	apps := []wavescalar.Workload{w}
	journal := filepath.Join(t.TempDir(), "root.jsonl")

	var lastProg wavescalar.ExploreProgress
	exp, err := wavescalar.NewExplorer(
		wavescalar.WithJournal(journal, false),
		wavescalar.WithScale(wavescalar.ScaleTiny),
		wavescalar.WithThreadCounts(1),
		wavescalar.WithParallelism(2),
		wavescalar.WithProgress(func(p wavescalar.ExploreProgress) { lastProg = p }),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exp.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if lastProg.Done != len(points) || lastProg.Simulated != len(points) {
		t.Errorf("progress = %+v, want %d cells simulated", lastProg, len(points))
	}

	for i, pt := range points {
		br, err := design.BestThreadsContext(context.Background(), wavescalar.Baseline(pt.Arch), w.Build(wavescalar.ScaleTiny), []int{1})
		if err != nil {
			t.Fatal(err)
		}
		want := wavescalar.SweepResult{
			Point: pt, Mean: br.AIPC,
			AIPC:    map[string]float64{w.Name: br.AIPC},
			Threads: map[string]int{w.Name: br.Threads},
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("explorer row %d differs from a direct design.BestThreadsContext:\ngot  %+v\nwant %+v", i, got[i], want)
		}
	}

	// Resume from the journal: zero simulations.
	exp2, err := wavescalar.NewExplorer(wavescalar.WithJournal(journal, true))
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()
	again, err := exp2.Sweep(context.Background(), points, apps)
	if err != nil {
		t.Fatal(err)
	}
	if p := exp2.LastProgress(); p.Simulated != 0 {
		t.Errorf("resumed root sweep simulated %d cells, want 0", p.Simulated)
	}
	if !reflect.DeepEqual(again, got) {
		t.Error("resumed root sweep results differ")
	}

	if !errors.Is(mustErr(wavescalar.NewExplorer(wavescalar.WithParallelism(-3))), wavescalar.ErrBadOptions) {
		t.Error("NewExplorer accepted a negative parallelism")
	}
}

func mustErr[T any](_ T, err error) error { return err }
