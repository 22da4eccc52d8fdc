// Command wsim runs one bundled workload on one WaveScalar configuration
// and prints its AIPC and detailed statistics.
//
// With -trace or -csv the run is traced at cycle level: -trace writes a
// Chrome trace-event JSON (load it at https://ui.perfetto.dev or
// chrome://tracing; one track per PE, NET pseudo-PE and cluster-level
// unit), -csv a per-interval counter CSV for plotting utilization and
// traffic over cycles, and the report ends with the hottest PEs and
// inter-cluster links. -cap bounds the event ring (the oldest events drop
// when it is full); -interval sets the counter bucket width.
//
// Usage:
//
//	wsim -list
//	wsim -app fft -threads 4 -c 4 -scale small
//	wsim -app mcf -v 64 -m 64 -l1 8 -l2 0
//	wsim -app fft -json    # machine-readable stats to stdout
//	wsim -app fft -scale tiny -c 2 -trace t.json -csv c.csv
//	wsim -app lu -threads 4 -c 4 -csv lu.csv -interval 500
//
// Exit status: 0 on success, 1 on usage or run errors (a thread count over
// the kernel's limit among them), 2 when the simulator detects deadlock or
// a non-quiescent machine (no forward progress, or tokens left in flight
// after all threads halted).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
	jsonOut := flag.Bool("json", false, "print machine-readable stats JSON to stdout")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON to this path")
	csvPath := flag.String("csv", "", "write the per-interval counter CSV to this path")
	interval := flag.Uint64("interval", 1024, "counter bucket width in cycles (with -trace/-csv)")
	capacity := flag.Int("cap", 1<<20, "trace event ring capacity; the oldest events drop when it is full")
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
	if err := cfg.Validate(); err != nil {
		fail(err)
	}
	w, err := wavescalar.WorkloadByName(*app)
	if err != nil {
		fail(err)
	}
	if err := cli.Threads(w, *threads); err != nil {
		fail(err)
	}
	var rec *wavescalar.TraceRecorder
	if *tracePath != "" || *csvPath != "" {
		rec = wavescalar.NewTraceRecorder(wavescalar.TraceOptions{Capacity: *capacity, Interval: *interval})
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
	var wrote []string
	if rec != nil {
		for _, sink := range []struct {
			path  string
			write func(io.Writer) error
		}{{*tracePath, rec.WriteChromeTrace}, {*csvPath, rec.WriteCounterCSV}} {
			if sink.path == "" {
				continue
			}
			if err := writeFile(sink.path, sink.write); err != nil {
				fail(err)
			}
			wrote = append(wrote, sink.path)
		}
	}
	if *jsonOut {
		if err := cli.WriteJSON(os.Stdout, cli.NewRunReport(*app, *scale, *threads, arch, st)); err != nil {
			fail(err)
		}
		return
	}
	fmt.Print(st.Format())
	if rec != nil {
		printTraceSummary(rec, wrote)
	}
}

// hottest is the number of entries in each hottest-PEs / hottest-links list.
const hottest = 5

// printTraceSummary ends a traced run's report: what the recorder kept,
// where it went, and the busiest PEs and inter-cluster links.
func printTraceSummary(rec *wavescalar.TraceRecorder, wrote []string) {
	fmt.Printf("\nevents recorded %d (dropped %d), counter interval %d cycles\n",
		rec.Len(), rec.Dropped(), rec.Interval())
	fmt.Printf("wrote %s\n", strings.Join(wrote, " and "))
	fmt.Printf("\nhottest PEs (fires / stall cycles):\n")
	for _, t := range rec.HottestPEs(hottest) {
		fmt.Printf("  C%d.D%d.PE%d  %8d fires  %8d stall cycles\n",
			t.Cluster, t.Domain, t.PE, t.Fires, t.StallCycles)
	}
	links := rec.HottestLinks(hottest)
	if len(links) == 0 {
		fmt.Printf("\nno inter-cluster traffic (single cluster or fully local run)\n")
		return
	}
	fmt.Printf("\nhottest inter-cluster links (delivered messages):\n")
	for _, l := range links {
		fmt.Printf("  C%d -> C%d  %8d msgs\n", l.Src, l.Dst, l.Msgs)
	}
}

// writeFile writes one trace sink's output to path.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsim:", err)
	os.Exit(1)
}
