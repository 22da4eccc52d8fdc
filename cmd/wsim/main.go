// Command wsim runs one bundled workload on one WaveScalar configuration
// and prints its AIPC and detailed statistics.
//
// Usage:
//
//	wsim -list
//	wsim -app fft -threads 4 -c 4 -scale small
//	wsim -app mcf -v 64 -m 64 -l1 8 -l2 0
//	wsim -app fft -json               # machine-readable stats to stdout
//	wsim -app fft -trace out.json     # also write a Chrome trace
//
// Exit status: 0 on success, 1 on usage or run errors, 2 when the
// simulator detects deadlock or a non-quiescent machine (no forward
// progress, or tokens left in flight after all threads halted).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"wavescalar"
	"wavescalar/internal/cli"
	"wavescalar/internal/version"
)

func main() {
	app := flag.String("app", "fft", "workload name (-list to enumerate)")
	list := flag.Bool("list", false, "list the bundled workloads")
	threads := flag.Int("threads", 1, "thread count (splash2 kernels only)")
	scale := flag.String("scale", "small", "workload scale: tiny, small, medium")
	c := flag.Int("c", 1, "clusters")
	d := flag.Int("d", 4, "domains per cluster")
	p := flag.Int("p", 8, "PEs per domain")
	v := flag.Int("v", 128, "instruction store entries per PE")
	m := flag.Int("m", 128, "matching table entries per PE")
	l1 := flag.Int("l1", 32, "L1 KB per cluster")
	l2 := flag.Int("l2", 1, "total L2 MB")
	k := flag.Int("k", 4, "k-loop bound")
	showEnergy := flag.Bool("energy", false, "print the energy-model breakdown")
	jsonOut := flag.Bool("json", false, "print machine-readable stats JSON to stdout")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON to this path")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Line("wsim"))
		return
	}
	if *list {
		for _, w := range wavescalar.Workloads() {
			fmt.Printf("%-12s %s\n", w.Name, w.Suite)
		}
		return
	}
	sc, err := cli.ParseScale(*scale)
	if err != nil {
		fail(err)
	}
	arch := wavescalar.ArchParams{
		Clusters: *c, Domains: *d, PEs: *p, Virt: *v, Match: *m, L1KB: *l1, L2MB: *l2,
	}
	cfg := wavescalar.Baseline(arch)
	cfg.K = *k
	var rec *wavescalar.TraceRecorder
	if *tracePath != "" {
		rec = wavescalar.NewTraceRecorder(wavescalar.TraceOptions{})
		cfg.Trace = rec
	}

	if !*jsonOut {
		fmt.Printf("running %s (%s scale) with %d thread(s) on %s (%.1f mm2)\n\n",
			*app, *scale, *threads, arch.String(), wavescalar.TotalArea(arch))
	}
	st, err := wavescalar.RunWorkloadContext(context.Background(), *app,
		wavescalar.WithConfig(cfg), wavescalar.AtScale(sc), wavescalar.WithThreads(*threads))
	if err != nil {
		if errors.Is(err, wavescalar.ErrDeadlock) || errors.Is(err, wavescalar.ErrNotQuiesced) {
			fmt.Fprintf(os.Stderr, "wsim: simulation did not complete: %v\n", err)
			os.Exit(2)
		}
		fail(err)
	}
	if rec != nil {
		if err := writeTrace(*tracePath, rec); err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Printf("wrote Chrome trace (%d events, %d dropped) to %s\n\n",
				rec.Len(), rec.Dropped(), *tracePath)
		}
	}
	if *jsonOut {
		if err := cli.WriteJSON(os.Stdout, cli.NewRunReport(*app, *scale, *threads, arch, st)); err != nil {
			fail(err)
		}
		return
	}
	fmt.Print(st.Format())
	if *showEnergy {
		fmt.Println("\nenergy estimate (90nm event model; comparative, not absolute):")
		fmt.Print(wavescalar.EstimateEnergy(st, arch).Format(st.Countable))
	}
}

// writeTrace writes the recorder's Chrome trace to path.
func writeTrace(path string, rec *wavescalar.TraceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsim:", err)
	os.Exit(1)
}
