// Command ledger is the repository's benchmark: four closed-loop
// workloads of identical, seeded rounds, end-to-end metrics computed over
// the fastest half of the rounds, and a per-layer ledger measured from
// outside by timing calls into each module's public functions. README.md
// in this directory is the metric dictionary.
//
//	ledger -workload sim_flow -seed 1 -seconds 24 -trace 0   # end-to-end metrics
//	ledger -workload sim_flow -seed 1 -seconds 24 -trace 1   # per-layer ledger + Chrome trace
//	ledger -workload sim_flow -aa 3                          # A/A check against the bounds
//	ledger -pin expected.json                                # regenerate the pinned results
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// tracedRounds is how many rounds the traced run repeats, each once
	// without and once with the recorder.
	tracedRounds = 3
	// setupsPerRun is how often an untraced run sets up; setup_s is the
	// median. One set-up is a second or three on a shared box, too short
	// to repeat within its bound.
	setupsPerRun = 3
	// maxRounds caps the timed rounds of a run, so that the buffer the op
	// samples go into has one size on every run of a workload and is all
	// resident before the first round: peak_rss_mb and the collector's
	// pacing then do not depend on how many rounds fitted into -seconds
	// (13 to 38 on the seed code).
	maxRounds = 64
)

// workloadNames are final: later issues cite them.
var workloadNames = []string{"sim_flow", "sim_retry", "sweep_cold", "serve_hot"}

// bench is one workload. setup may be called again after close; every
// call starts from nothing and the same seed gives the same inputs.
type bench interface {
	// plan enumerates the workload's universe and fixes the seeded
	// schedule, without simulating anything; setup starts with it.
	plan(seed int64) error
	// setup builds the inputs from the seed, cross-checks every distinct
	// simulation behind them against internal/ref and expected.json, and
	// runs every operation at least once so the first timed round is warm.
	setup(ctx context.Context, seed int64) error
	// opsPerRound is the number of operations in the fixed schedule; valid
	// after plan.
	opsPerRound() int
	// round runs the fixed schedule once, with spans when tr is non-nil,
	// and records its operations into ops, which holds opsPerRound samples.
	round(ctx context.Context, tr *recorder, ops []opSample) (roundSample, error)
	// layers runs the direct probes of the traced run and fills in the
	// workload's share of the per-layer ledger from them and from the
	// spans of the traced rounds.
	layers(ctx context.Context, tr *recorder, out map[string]float64) error
	// check reports what set-up found: ref mismatches, pin mismatches, and
	// a hash of the seeded schedule.
	check() checkResult
	// pin records the results of the workload's universe into p.
	pin(ctx context.Context, p *pins) error
	close() error
}

type checkResult struct {
	refMismatches int     // simulations whose countable count differs from internal/ref
	pinMismatches int     // results differing from expected.json
	refKinstPerS  float64 // reference interpreter speed
	scheduleHash  string
}

func newBench(name, dir string, p *pins) (bench, error) {
	switch name {
	case "sim_flow":
		return &simBench{cells: simFlowCells, pins: p}, nil
	case "sim_retry":
		return &simBench{cells: simRetryCells, pins: p}, nil
	case "sweep_cold":
		return &sweepBench{dir: dir, pins: p}, nil
	case "serve_hot":
		return &serveBench{dir: dir, pins: p}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, workloadNames)
}

// options are the command's flags: the driver's four, and the three
// modes ISSUE 12 names.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       int
	all      bool
	pin      string

	// Not flags: tests shorten a run through these. Zero is what every
	// run from the command line gets.
	rounds int // run exactly this many timed rounds and ignore seconds
	setups int // set up this many times
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "one of sim_flow, sim_retry, sweep_cold, serve_hot")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the schedule: op order, Zipf draws, hot-set ranking")
	flag.Float64Var(&o.seconds, "seconds", 24, "length of the timed part; whole rounds are run until it is used up")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from untraced rounds; 1: per-layer ledger from a traced run, and a Chrome trace in the temporary directory")
	flag.IntVar(&o.aa, "aa", 0, "run the workload k times back to back and fail if two runs differ by more than a metric's bound")
	flag.BoolVar(&o.all, "all", false, "run the four workloads in sequence")
	flag.StringVar(&o.pin, "pin", "", "simulate every universe once and write the pinned results to this file")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	ctx := context.Background()
	switch {
	case o.pin != "":
		return writePins(ctx, o.pin)
	case o.all:
		for _, name := range workloadNames {
			if _, err := runChild(o, name); err != nil {
				return err
			}
		}
		return nil
	case o.aa > 0:
		return runAA(o)
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := measure(ctx, o, dir, p)
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}

// result is what one run prints: every metric by name with its unit, then
// the one JSON object the driver reads.
type result struct {
	defs      []metricDef
	values    map[string]float64
	notes     []string
	attempted int
	failed    int
	correct   bool
}

func (r *result) print(w *os.File) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	out := wireResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]wireMetric)}
	for _, d := range r.defs {
		fmt.Fprintf(w, "%s %v %s\n", d.name, r.values[d.name], d.unit)
		out.Metrics[d.name] = wireMetric{r.values[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// tracePath is where the traced run of a workload leaves its Chrome
// trace: the temporary directory, which run.sh puts inside the checkout.
func tracePath(workload string) string {
	return filepath.Join(os.TempDir(), "ledger-trace-"+workload+".json")
}

// measure runs one workload once: set-up, rounds, metrics.
func measure(ctx context.Context, o options, dir string, p *pins) (*result, error) {
	cal := newCalibrator()
	res := &result{values: make(map[string]float64)}

	// Set up several times and keep the last.
	setups := o.setups
	if setups == 0 {
		setups = setupsPerRun
		if o.trace == 1 {
			setups = 1
		}
	}
	var b bench
	var err error
	var setupS, setupClockS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		before := cal.read()
		start := time.Now()
		if b, err = newBench(o.workload, filepath.Join(dir, fmt.Sprint("setup", i)), p); err != nil {
			return nil, err
		}
		if err := b.setup(ctx, o.seed); err != nil {
			b.close()
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		clock := time.Since(start).Seconds()
		around := before.between(cal.read())
		setupClockS = append(setupClockS, clock)
		setupS = append(setupS, clock/around.slowness())
		res.notes = append(res.notes, fmt.Sprintf("setup %d clock_s %.4f compute_ms %.3f memory_ms %.3f", i, clock, ms(around.compute), ms(around.memory)))
	}
	defer b.close()

	var tr *recorder
	if o.trace == 1 {
		tr = newRecorder()
	}
	// Every op sample of the run goes into one buffer without pointers,
	// written once here so that all of it is resident before the rounds
	// (a sample no round overwrites would count as a failed op).
	perRound := b.opsPerRound()
	samples := make([]opSample, maxRounds*perRound)
	for i := range samples {
		samples[i].failed = true
	}
	taken := 0
	next := func() []opSample {
		taken++
		return samples[(taken-1)*perRound : taken*perRound]
	}
	// Collect now, so that every run starts its rounds from the same heap
	// whatever set-up left behind.
	runtime.GC()
	var gc0, gc1 debug.GCStats
	debug.ReadGCStats(&gc0)
	m0, cpu0 := mallocs(), cpuTime()

	// Timed rounds: fixed work per round, as many whole rounds as fit
	// into -seconds. The traced run alternates untraced and traced rounds
	// so that both see the same machine.
	var untraced, traced []roundSample
	rounds := o.rounds
	if tr != nil && rounds == 0 {
		rounds = tracedRounds
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	reading := cal.read()
	for n := 0; n < maxRounds && (rounds == 0 || n < rounds); n++ {
		if spent := time.Since(start); rounds == 0 && n > 0 && spent+spent/time.Duration(n) > budget {
			break
		}
		r, err := b.round(ctx, nil, next())
		if err != nil {
			return nil, err
		}
		after := cal.read()
		r.calib, reading = reading.between(after), after
		untraced = append(untraced, r)
		res.notes = append(res.notes, fmt.Sprintf("round %d wall_ms %.2f compute_ms %.3f memory_ms %.3f", n, ms(r.wall), ms(r.calib.compute), ms(r.calib.memory)))
		if tr != nil {
			if r, err = b.round(ctx, tr, next()); err != nil {
				return nil, err
			}
			traced = append(traced, r)
			reading = cal.read()
		}
	}
	m1, cpu1 := mallocs(), cpuTime()
	debug.ReadGCStats(&gc1)

	kept := keepFastest(untraced)
	for _, r := range append(append([]roundSample(nil), untraced...), traced...) {
		res.attempted += len(r.ops)
		for _, op := range r.ops {
			if op.failed {
				res.failed++
			}
		}
	}
	chk := b.check()
	res.correct = res.failed == 0 && chk.refMismatches == 0 && chk.pinMismatches == 0
	allOps, _ := throughput(untraced)
	var walls []float64
	for _, r := range untraced {
		walls = append(walls, r.wall.Seconds())
	}
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s seed %d schedule %s", o.workload, o.seed, chk.scheduleHash),
		fmt.Sprintf("rounds %d kept %d ops %d failed %d round_spread %.4f all_rounds_ops_per_s %.4f",
			len(untraced), len(kept), res.attempted, res.failed, quartileSpread(walls), allOps),
		fmt.Sprintf("ref_mismatches %d pin_mismatches %d", chk.refMismatches, chk.pinMismatches))

	if tr == nil {
		res.defs = endToEnd
		// The five timing metrics are the clock's values divided by how
		// slow the calibration kernels found this machine around the kept
		// rounds; the clock's own values are printed beside them.
		slow := slowness(kept)
		var compute, memory float64
		for _, r := range kept {
			compute += ms(r.calib.compute) / float64(len(kept))
			memory += ms(r.calib.memory) / float64(len(kept))
		}
		opsPerS, kcPerS := throughput(kept)
		lat := latencies(kept)
		p50, p90 := percentile(lat, 0.50), percentile(lat, 0.90)
		res.notes = append(res.notes,
			fmt.Sprintf("kept_ops %d highest_supported_percentile %.3f", len(lat), maxPercentile(len(lat))),
			fmt.Sprintf("clock setup_s %.4f ops_per_s %.4f sim_kcycles_per_s %.4f op_ms_p50 %.6f op_ms_p90 %.6f",
				median(setupClockS), opsPerS, kcPerS, p50, p90),
			fmt.Sprintf("host slowness %.4f compute_ms %.3f memory_ms %.3f (kept rounds)", slow, compute, memory))
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.values["setup_s"] = median(setupS)
		res.values["ops_per_s"] = opsPerS * slow
		res.values["sim_kcycles_per_s"] = kcPerS * slow
		res.values["op_ms_p50"] = p50 / slow
		res.values["op_ms_p90"] = p90 / slow
		res.values["allocs_per_op"] = ratio(float64(m1-m0), float64(res.attempted))
		res.values["peak_rss_mb"] = rss
		return res, nil
	}

	// The traced run: the per-layer ledger. Its rounds are too few for
	// end-to-end metrics, which always come from an untraced run.
	res.defs = perLayer
	v := res.values
	if err := b.layers(ctx, tr, v); err != nil {
		return nil, err
	}
	// Tracing overhead pair by pair: each traced round against the
	// untraced round run just before it, so that drift of the machine
	// over the run cancels.
	var overhead []float64
	for i, r := range traced {
		overhead = append(overhead, 1-ratio(untraced[i].wall.Seconds(), r.wall.Seconds()))
	}
	v["ref.countable_mismatches"] = float64(chk.refMismatches)
	v["ref.interp_kinst_per_s"] = chk.refKinstPerS
	v["run.rounds"] = float64(len(untraced))
	v["run.kept_rounds"] = float64(len(kept))
	v["run.ops"] = float64(res.attempted)
	v["run.round_spread"] = quartileSpread(walls)
	v["run.all_rounds_ops_per_s"] = allOps
	v["run.cpu_ms_per_op"] = ratio(ms(cpu1-cpu0), float64(res.attempted))
	v["run.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	v["run.gc_pause_ms"] = ms(gc1.PauseTotal - gc0.PauseTotal)
	var compute, memory []float64
	for _, r := range untraced {
		compute = append(compute, ms(r.calib.compute))
		memory = append(memory, ms(r.calib.memory))
	}
	v["run.host_calib_ms"] = median(compute)
	v["run.host_mem_calib_ms"] = median(memory)
	v["run.trace_overhead_frac"] = median(overhead)

	path := tracePath(o.workload)
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("trace %s (%d spans): name count total_ms self_ms", path, len(tr.spans)))
	total, count := totalTimes(tr.spans)
	self := selfTimes(tr.spans)
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.notes = append(res.notes, fmt.Sprintf("span %s %d %.3f %.3f", name, count[name], ms(total[name]), ms(self[name])))
	}
	return res, nil
}

// writePins simulates every workload's universe once and writes the
// results as the new expected.json.
func writePins(ctx context.Context, path string) error {
	dir, err := os.MkdirTemp("", "ledger-pin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := &pins{Sim: map[string]simPin{}, Sweep: map[string]cellPin{}, Serve: map[string]cellPin{}}
	for _, name := range workloadNames {
		b, err := newBench(name, filepath.Join(dir, name), p)
		if err != nil {
			return err
		}
		if err := b.pin(ctx, p); err != nil {
			b.close()
			return fmt.Errorf("pin %s: %w", name, err)
		}
		if err := b.close(); err != nil {
			return err
		}
	}
	return os.WriteFile(path, p.marshal(), 0o644)
}
