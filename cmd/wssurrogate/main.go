// Command wssurrogate trains, evaluates and queries the learned
// performance predictor (internal/surrogate) over sweep journals.
//
// Train a model from a journal's cells and report cross-validated error:
//
//	wssurrogate train -journal sweep.jsonl -out model.json
//
// Evaluate frontier recovery: run the exhaustive sweep (journaled, so
// reruns are free), then an EI-guided sweep under a simulation budget
// with a fresh cache, and compare the two Pareto frontiers:
//
//	wssurrogate eval -suite tiled -scale tiny -journal sweep.jsonl -resume \
//	    -budget 0.2 -out results/surrogate_eval.json
//
// Predict one cell from a saved model, without simulating:
//
//	wssurrogate predict -model model.json -app gemm-os-4x4x4 -arch "C4 D2 P8 V64 M64 L1:32KB L2:1MB"
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"wavescalar/internal/area"
	"wavescalar/internal/cli"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/surrogate"
	"wavescalar/internal/version"
	"wavescalar/internal/workload"
)

func main() {
	if len(os.Args) >= 2 {
		switch os.Args[1] {
		case "train":
			cmdTrain(os.Args[2:])
			return
		case "eval":
			cmdEval(os.Args[2:])
			return
		case "predict":
			cmdPredict(os.Args[2:])
			return
		case "-version", "--version", "version":
			fmt.Println(version.Line("wssurrogate"))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: wssurrogate <train|eval|predict> [flags]  (see -h of each)")
	os.Exit(2)
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("wssurrogate train", flag.ExitOnError)
	journal := fs.String("journal", "", "JSONL sweep journal to train on (required)")
	out := fs.String("out", "model.json", "write the serialized model here")
	kind := fs.String("kind", "gbm", "model kind: gbm or ridge")
	seed := fs.Int64("seed", 1, "training seed (fold assignment)")
	folds := fs.Int("folds", 5, "cross-validation folds")
	fs.Parse(args)
	if *journal == "" {
		fail("train: -journal is required")
	}

	samples, total, err := journalSamples(*journal)
	if err != nil {
		fail("train: %v", err)
	}
	fmt.Printf("journal %s: %d records, %d trainable samples\n", *journal, total, len(samples))
	pred, err := surrogate.Train(samples, surrogate.Options{Kind: *kind, Seed: *seed, Folds: *folds})
	if err != nil {
		fail("train: %v", err)
	}
	if err := pred.Save(*out); err != nil {
		fail("train: %v", err)
	}
	fmt.Printf("model (%s, seed %d, %d folds) written to %s\n", pred.Kind, pred.Seed, pred.FoldsK, *out)
	printCV(pred)
}

func printCV(pred *surrogate.Predictor) {
	fmt.Printf("%-14s %8s %8s %8s %8s %8s\n", "metric", "samples", "mae", "rmse", "mape", "r2")
	for _, m := range pred.Metrics {
		fmt.Printf("%-14s %8d %8.4f %8.4f %7.1f%% %8.3f\n",
			m.Name, m.Samples, m.CV.MAE, m.CV.RMSE, 100*m.CV.MAPE, m.CV.R2)
	}
}

// journalSamples replays a journal into a throwaway cache and converts
// its cells to training rows.
func journalSamples(path string) ([]surrogate.Sample, int, error) {
	cache := explore.NewCache()
	n, err := explore.ReplayJournal(path, cache)
	if err != nil {
		return nil, 0, err
	}
	return explore.CellSamples(cache.Cells()), n, nil
}

// evalReport is the checked-in `wssurrogate eval` artifact: the
// budgeted-vs-exhaustive frontier comparison backing the surrogate's
// acceptance criterion.
type evalReport struct {
	Report string  `json:"report"` // "surrogate-eval-v1"
	Suite  string  `json:"suite"`
	Scale  string  `json:"scale"`
	Kind   string  `json:"kind"`
	Seed   int64   `json:"seed"`
	Points int     `json:"points"`
	Apps   int     `json:"apps"`
	Rounds int     `json:"rounds"`
	Budget float64 `json:"budget_fraction"`
	// Cell accounting: the guided sweep evaluated EvaluatedCells of
	// TotalCells (fraction Used).
	TotalCells     int     `json:"total_cells"`
	EvaluatedCells int     `json:"evaluated_cells"`
	Used           float64 `json:"used_fraction"`
	// CVSummary is the final model's per-metric cross-validated error.
	CVSummary []cvRow `json:"cv"`
	// Frontiers and the per-point match against tolerance.
	Exhaustive []frontierPt `json:"exhaustive_frontier"`
	Guided     []frontierPt `json:"guided_frontier"`
	Matches    []matchRow   `json:"matches"`
	ToleranceP float64      `json:"tolerance_pct"`
	Recovered  bool         `json:"recovered"`
	MaxAreaGap float64      `json:"max_area_gap_pct"`
	MaxAIPCGap float64      `json:"max_aipc_gap_pct"`
}

type cvRow struct {
	Metric  string  `json:"metric"`
	Samples int     `json:"samples"`
	MAE     float64 `json:"mae"`
	RMSE    float64 `json:"rmse"`
	R2      float64 `json:"r2"`
}

type frontierPt struct {
	Arch string  `json:"arch"`
	Area float64 `json:"area_mm2"`
	AIPC float64 `json:"aipc"`
}

type matchRow struct {
	Arch       string  `json:"arch"` // exhaustive frontier point
	GuidedArch string  `json:"guided_arch"`
	AreaGapPct float64 `json:"area_gap_pct"`
	AIPCGapPct float64 `json:"aipc_gap_pct"`
	Matched    bool    `json:"matched"`
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("wssurrogate eval", flag.ExitOnError)
	suite := fs.String("suite", "tiled", "suite: spec2000, mediabench, splash2, tiled")
	scaleName := fs.String("scale", "tiny", "workload scale")
	journal := fs.String("journal", "", "journal for the exhaustive sweep (reruns become free)")
	resume := fs.Bool("resume", false, "resume the exhaustive journal")
	budget := fs.Float64("budget", 0.2, "guided-sweep cell budget as a fraction of the exhaustive sweep")
	tol := fs.Float64("tol", 2.0, "frontier match tolerance, percent per objective")
	kind := fs.String("kind", "gbm", "model kind: gbm or ridge")
	seed := fs.Int64("seed", 1, "guided-sweep seed")
	par := fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	quiet := fs.Bool("quiet", false, "suppress progress logging")
	fs.Parse(args)

	sc, err := cli.ParseScale(*scaleName)
	if err != nil {
		fail("eval: %v", err)
	}
	st, threads, ok := workload.SuiteByName(*suite)
	if !ok {
		fail("eval: unknown suite %q", *suite)
	}
	apps := workload.BySuite(st)
	points := design.Viable()
	logf := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Exhaustive pass (journaled: reruns replay instead of simulating).
	exOpts := []explore.Option{
		explore.WithScale(sc), explore.WithThreadCounts(threads...),
	}
	if *par > 0 {
		exOpts = append(exOpts, explore.WithParallelism(*par))
	}
	if *journal != "" {
		exOpts = append(exOpts, explore.WithJournal(*journal, *resume))
	}
	exhaustiveExp, err := explore.New(exOpts...)
	if err != nil {
		fail("eval: %v", err)
	}
	defer exhaustiveExp.Close()
	logf("exhaustive sweep: %d points × %d apps...", len(points), len(apps))
	start := time.Now()
	exResults, err := exhaustiveExp.Sweep(ctx, points, apps)
	if err != nil {
		fail("eval: exhaustive sweep: %v", err)
	}
	p := exhaustiveExp.LastProgress()
	logf("exhaustive sweep: %d cells (%d simulated, %d cached) in %s",
		p.Done, p.Simulated, p.CacheHits, time.Since(start).Round(time.Millisecond))

	// Guided pass with a fresh private cache: its budget accounting
	// counts real evaluations, not exhaustive-pass leftovers.
	gOpts := []explore.Option{
		explore.WithScale(sc), explore.WithThreadCounts(threads...),
	}
	if *par > 0 {
		gOpts = append(gOpts, explore.WithParallelism(*par))
	}
	guidedExp, err := explore.New(gOpts...)
	if err != nil {
		fail("eval: %v", err)
	}
	defer guidedExp.Close()
	guided, err := guidedExp.SweepGuided(ctx, points, apps, explore.GuidedSpec{
		Scale: sc, ThreadCounts: threads,
		BudgetFraction: *budget, Seed: *seed,
		Model: surrogate.Options{Kind: *kind},
		Log:   logf,
	})
	if err != nil {
		fail("eval: guided sweep: %v", err)
	}

	rep := buildReport(*suite, *scaleName, *kind, *seed, *budget, *tol, points, apps, exResults, guided)
	b, err := encodeReport(rep)
	if err != nil {
		fail("eval: %v", err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fail("eval: %v", err)
		}
		logf("report written to %s", *out)
	} else {
		os.Stdout.Write(b)
	}
	fmt.Fprintf(os.Stderr, "frontier recovered: %v (%d/%d frontier points within %.1f%%; %d/%d cells = %.1f%% of exhaustive)\n",
		rep.Recovered, matched(rep.Matches), len(rep.Matches), *tol,
		rep.EvaluatedCells, rep.TotalCells, 100*rep.Used)
	if !rep.Recovered {
		os.Exit(1)
	}
}

func matched(rows []matchRow) int {
	n := 0
	for _, r := range rows {
		if r.Matched {
			n++
		}
	}
	return n
}

func buildReport(suite, scale, kind string, seed int64, budget, tol float64,
	points []design.Point, apps []workload.Workload,
	exResults []design.SweepResult, guided *explore.Guided) evalReport {

	exFrontier := design.Frontier(exResults)
	gFrontier := design.Frontier(guided.Results)

	rep := evalReport{
		Report: "surrogate-eval-v1", Suite: suite, Scale: scale,
		Kind: kind, Seed: seed, Budget: budget,
		Points: len(points), Apps: len(apps), Rounds: guided.Rounds,
		TotalCells: guided.TotalCells, EvaluatedCells: guided.EvaluatedCells,
		Used:       float64(guided.EvaluatedCells) / float64(guided.TotalCells),
		ToleranceP: tol,
		Recovered:  true,
	}
	for _, m := range guided.Predictor.Metrics {
		rep.CVSummary = append(rep.CVSummary, cvRow{
			Metric: m.Name, Samples: m.Samples,
			MAE: m.CV.MAE, RMSE: m.CV.RMSE, R2: m.CV.R2,
		})
	}
	for _, e := range exFrontier {
		rep.Exhaustive = append(rep.Exhaustive, frontierPt{e.Arch.String(), e.Area, e.AIPC})
	}
	for _, g := range gFrontier {
		rep.Guided = append(rep.Guided, frontierPt{g.Arch.String(), g.Area, g.AIPC})
	}
	for _, e := range exFrontier {
		row := matchRow{Arch: e.Arch.String(), AreaGapPct: 100, AIPCGapPct: 100}
		bestGap := -1.0
		for _, g := range gFrontier {
			areaGap := 100 * abs(g.Area-e.Area) / e.Area
			aipcGap := 100 * abs(g.AIPC-e.AIPC) / e.AIPC
			worst := areaGap
			if aipcGap > worst {
				worst = aipcGap
			}
			if bestGap < 0 || worst < bestGap {
				bestGap = worst
				row.GuidedArch = g.Arch.String()
				row.AreaGapPct, row.AIPCGapPct = areaGap, aipcGap
			}
		}
		row.Matched = row.AreaGapPct <= tol && row.AIPCGapPct <= tol
		if !row.Matched {
			rep.Recovered = false
		}
		if row.AreaGapPct > rep.MaxAreaGap {
			rep.MaxAreaGap = row.AreaGapPct
		}
		if row.AIPCGapPct > rep.MaxAIPCGap {
			rep.MaxAIPCGap = row.AIPCGapPct
		}
		rep.Matches = append(rep.Matches, row)
	}
	if float64(guided.EvaluatedCells) > budget*float64(guided.TotalCells)+1e-9 {
		rep.Recovered = false // over budget counts as failure
	}
	return rep
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func encodeReport(rep evalReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func cmdPredict(args []string) {
	fs := flag.NewFlagSet("wssurrogate predict", flag.ExitOnError)
	model := fs.String("model", "model.json", "serialized model to load")
	app := fs.String("app", "", "workload name (required)")
	scaleName := fs.String("scale", "tiny", "workload scale")
	threads := fs.Int("threads", 1, "thread count")
	arch := fs.String("arch", "", `architecture, e.g. "C4 D2 P8 V64 M64 L1:32KB L2:1MB" (default: baseline)`)
	k := fs.Int("k", 0, "k-loop bound override (0 = baseline)")
	fs.Parse(args)
	if *app == "" {
		fail("predict: -app is required")
	}
	pred, err := surrogate.Load(*model)
	if err != nil {
		fail("predict: %v", err)
	}
	sc, err := cli.ParseScale(*scaleName)
	if err != nil {
		fail("predict: %v", err)
	}
	params := sim.BaselineArch()
	if *arch != "" {
		params, err = area.ParseArch(*arch)
		if err != nil {
			fail("predict: %v", err)
		}
	}
	cfg := sim.Baseline(params)
	if *k > 0 {
		cfg.K = *k
	}
	x := surrogate.Features(cfg, *app, sc, *threads)
	out := pred.Predict(x)
	cli.WriteJSON(os.Stdout, map[string]any{
		"app": *app, "arch": params.String(), "scale": *scaleName, "threads": *threads,
		"area_mm2": area.Total(params),
		"aipc":     out.AIPC, "sigma_aipc": out.SigmaAIPC, "rel_uncertainty": out.RelAIPC,
		"cycles": out.Cycles, "traffic": out.Traffic,
		"model": pred.Kind,
	})
}

func fail(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "wssurrogate: "+format+"\n", a...)
	os.Exit(1)
}
