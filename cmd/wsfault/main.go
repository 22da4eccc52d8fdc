// Command wsfault measures graceful degradation: it runs one workload on
// one WaveScalar configuration while killing a growing fraction of the
// machine's PEs, and reports how much IPC each damage level retains.
//
// The kill sets are deterministic and nested: under one seed, the 25%
// set contains the 10% set contains the 5% set, so the curve measures
// strictly growing damage rather than unrelated kill patterns. Rerunning
// with the same flags reproduces the curve byte for byte.
//
// Usage:
//
//	wsfault                                # fft, kill 0/5/10/25% of PEs
//	wsfault -app radix -fractions 0,0.5    # kill half the machine
//	wsfault -script faults.json            # explicit scenario instead
//	wsfault -format csv                    # curve as CSV rows
//
// Exit status: 0 when the baseline (undamaged) run completes — degraded
// runs that fail are reported in their row, not fatal; 1 on usage or
// baseline run errors; 2 when the baseline deadlocks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wavescalar"
	"wavescalar/internal/cli"
	"wavescalar/internal/version"
)

// row is one point on the degradation curve.
type row struct {
	Label    string                 `json:"label"`    // "5%" for kill fractions, "script" for -script
	Fraction float64                `json:"fraction"` // requested kill fraction (0 for -script)
	DeadPEs  int                    `json:"dead_pes"` // PEs actually killed
	AIPC     float64                `json:"aipc"`
	Retained float64                `json:"retained"` // AIPC relative to the undamaged baseline
	Cycles   uint64                 `json:"cycles"`
	Fault    wavescalar.FaultReport `json:"fault"`
	Err      string                 `json:"err,omitempty"`
}

// report is the full JSON output.
type report struct {
	App       string  `json:"app"`
	Scale     string  `json:"scale"`
	Threads   int     `json:"threads"`
	Arch      string  `json:"arch"`
	AreaMM2   float64 `json:"area_mm2"`
	TotalPEs  int     `json:"total_pes"`
	Seed      uint64  `json:"seed"`
	KillCycle uint64  `json:"kill_cycle"`
	Rows      []row   `json:"rows"`
}

func main() {
	app := flag.String("app", "fft", "workload name (see wsim -list)")
	scale := flag.String("scale", "tiny", "workload scale: tiny, small, medium")
	threads := flag.Int("threads", 0, "thread count; 0 = 4 on a kernel that takes threads (a throughput-bound baseline, so damage shows as lost IPC), 1 on one that does not")
	c := flag.Int("c", 1, "clusters")
	d := flag.Int("d", 4, "domains per cluster")
	p := flag.Int("p", 8, "PEs per domain")
	v := flag.Int("v", 128, "instruction store entries per PE")
	m := flag.Int("m", 128, "matching table entries per PE")
	l1 := flag.Int("l1", 32, "L1 KB per cluster")
	l2 := flag.Int("l2", 1, "total L2 MB")
	k := flag.Int("k", 4, "k-loop bound")
	fractions := flag.String("fractions", "0,0.05,0.10,0.25",
		"comma-separated PE kill fractions; 0 (the baseline) is always run")
	seed := flag.Uint64("seed", 42, "fault seed: fixes which PEs die; kill sets nest across fractions")
	killCycle := flag.Uint64("kill-cycle", 200, "cycle at which the scripted PEs die")
	scriptPath := flag.String("script", "", "JSON fault-script path: run the baseline plus this scenario instead of kill fractions")
	format := flag.String("format", "json", "output format: json or csv")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Line("wsfault"))
		return
	}
	if *format != "json" && *format != "csv" {
		fail(fmt.Errorf("unknown format %q (json, csv)", *format))
	}
	sc, err := cli.ParseScale(*scale)
	if err != nil {
		fail(err)
	}
	arch := wavescalar.ArchParams{
		Clusters: *c, Domains: *d, PEs: *p, Virt: *v, Match: *m, L1KB: *l1, L2MB: *l2,
	}
	if *threads == 0 {
		w, err := wavescalar.WorkloadByName(*app)
		if err != nil {
			fail(err)
		}
		*threads = min(4, w.MaxThreads())
	}
	cfg := wavescalar.Baseline(arch)
	cfg.K = *k
	shape := wavescalar.MachineShape(cfg)

	// Build the scenario list: (label, fraction, script) triples. The
	// baseline is always first so every other row has a denominator.
	type scenario struct {
		label    string
		fraction float64
		script   *wavescalar.FaultScript
	}
	scenarios := []scenario{{label: "baseline"}}
	if *scriptPath != "" {
		data, err := os.ReadFile(*scriptPath)
		if err != nil {
			fail(err)
		}
		s, err := wavescalar.ParseFaultScript(data)
		if err != nil {
			fail(err)
		}
		if err := s.Validate(shape); err != nil {
			fail(err)
		}
		scenarios = append(scenarios, scenario{label: "script", script: s})
	} else {
		for _, fs := range strings.Split(*fractions, ",") {
			fs = strings.TrimSpace(fs)
			if fs == "" {
				continue
			}
			f, err := strconv.ParseFloat(fs, 64)
			if err != nil {
				fail(fmt.Errorf("bad fraction %q: %v", fs, err))
			}
			if f == 0 {
				continue // the baseline covers it
			}
			s, err := wavescalar.KillFractionScript(shape, f, *seed, *killCycle)
			if err != nil {
				fail(err)
			}
			scenarios = append(scenarios, scenario{
				label:    fmt.Sprintf("%g%%", f*100),
				fraction: f,
				script:   s,
			})
		}
	}

	rep := report{
		App: *app, Scale: *scale, Threads: *threads,
		Arch: arch.String(), AreaMM2: wavescalar.TotalArea(arch),
		TotalPEs: shape.TotalPEs(), Seed: *seed, KillCycle: *killCycle,
	}
	var baseAIPC float64
	for i, sn := range scenarios {
		runCfg := cfg
		runCfg.Fault = sn.script
		st, err := wavescalar.RunWorkloadContext(context.Background(), *app,
			wavescalar.WithConfig(runCfg), wavescalar.AtScale(sc), wavescalar.WithThreads(*threads))
		rw := row{Label: sn.label, Fraction: sn.fraction}
		if err != nil {
			if i == 0 {
				// No baseline, no curve.
				if errors.Is(err, wavescalar.ErrDeadlock) || errors.Is(err, wavescalar.ErrNotQuiesced) {
					fmt.Fprintf(os.Stderr, "wsfault: baseline did not complete: %v\n", err)
					os.Exit(2)
				}
				fail(err)
			}
			rw.Err = err.Error()
		} else {
			rw.AIPC = st.AIPC()
			rw.Cycles = st.Cycles
			rw.Fault = st.Fault
			rw.DeadPEs = st.Fault.PEsKilled
			if i == 0 {
				baseAIPC = st.AIPC()
			}
			if baseAIPC > 0 {
				rw.Retained = st.AIPC() / baseAIPC
			}
		}
		rep.Rows = append(rep.Rows, rw)
	}

	if *format == "csv" {
		fmt.Println("label,fraction,dead_pes,aipc,retained,cycles,insts_migrated,tokens_migrated,healed,err")
		for _, rw := range rep.Rows {
			fmt.Printf("%s,%g,%d,%.4f,%.4f,%d,%d,%d,%d,%s\n",
				rw.Label, rw.Fraction, rw.DeadPEs, rw.AIPC, rw.Retained, rw.Cycles,
				rw.Fault.InstsMigrated, rw.Fault.TokensMigrated, rw.Fault.Healed,
				strings.ReplaceAll(rw.Err, ",", ";"))
		}
		return
	}
	if err := cli.WriteJSON(os.Stdout, rep); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsfault:", err)
	os.Exit(1)
}
