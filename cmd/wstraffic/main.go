// Command wstraffic reproduces Figure 8: the distribution of network
// traffic across the interconnect hierarchy (intra-PE, pod, domain,
// cluster, inter-cluster) split into operand and memory/coherence classes,
// for each workload and a range of processor sizes.
//
// Usage:
//
//	wstraffic                       # all workloads on 1 cluster
//	wstraffic -clusters 1,4,16      # splash2 across machine sizes
//	wstraffic -app fft -threads 16
//	wstraffic -json                 # one JSON object per row to stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wavescalar"
	"wavescalar/internal/cli"
	"wavescalar/internal/version"
)

func main() {
	app := flag.String("app", "", "one workload (default: whole suites)")
	clusters := flag.String("clusters", "1", "comma-separated cluster counts")
	threads := flag.Int("threads", 0, "threads (0 = clusters for splash2, 1 otherwise); over a kernel's limit is an error")
	scale := flag.String("scale", "tiny", "workload scale: tiny, small, medium")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON object per row")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Line("wstraffic"))
		return
	}
	sc, err := cli.ParseScale(*scale)
	if err != nil {
		fail(err)
	}

	var cfgs []wavescalar.Config // one machine per cluster count
	for _, s := range strings.Split(*clusters, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fail(err)
		}
		arch := wavescalar.BaselineArch()
		arch.Clusters, arch.L2MB = n, max(1, n/2) // 1 MB of L2 per two clusters, at least 1
		cfg := wavescalar.Baseline(arch)
		if err := cfg.Validate(); err != nil {
			fail(err)
		}
		cfgs = append(cfgs, cfg)
	}

	var apps []wavescalar.Workload
	if *app != "" {
		w, err := wavescalar.WorkloadByName(*app)
		if err != nil {
			fail(err)
		}
		apps = []wavescalar.Workload{w}
	} else {
		apps = wavescalar.Workloads()
	}

	threadsFor := func(w wavescalar.Workload, clusters int) int {
		switch {
		case *threads != 0:
			return *threads
		case w.Suite == wavescalar.SuiteSplash:
			return clusters
		}
		return 1
	}
	for _, w := range apps {
		for _, cfg := range cfgs {
			if err := cli.Threads(w, threadsFor(w, cfg.Arch.Clusters)); err != nil {
				fail(fmt.Errorf("%s C=%d: %w", w.Name, cfg.Arch.Clusters, err))
			}
		}
	}

	if !*jsonOut {
		fmt.Printf("%-12s %4s %3s %9s | %7s %7s %7s %7s %7s | %7s %7s\n",
			"app", "C", "thr", "messages",
			"PE", "pod", "domain", "cluster", "grid", "operand", "msg-lat")
	}
	for _, w := range apps {
		for _, cfg := range cfgs {
			c := cfg.Arch.Clusters
			th := threadsFor(w, c)
			st, err := wavescalar.RunWorkloadContext(context.Background(), w.Name,
				wavescalar.WithConfig(cfg), wavescalar.AtScale(sc), wavescalar.WithThreads(th))
			if err != nil {
				fail(fmt.Errorf("%s C=%d: %w", w.Name, c, err))
			}
			if *jsonOut {
				if err := cli.WriteJSON(os.Stdout, cli.NewTrafficRow(w, c, th, *scale, st)); err != nil {
					fail(err)
				}
				continue
			}
			total := st.TrafficTotal()
			pct := func(l wavescalar.TrafficLevel) float64 {
				n := st.Traffic[l][wavescalar.ClassOperand] + st.Traffic[l][wavescalar.ClassMemory]
				return 100 * float64(n) / float64(total)
			}
			fmt.Printf("%-12s %4d %3d %9d | %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %6.1f%% %7.2f\n",
				w.Name, c, th, total,
				pct(wavescalar.LevelSelf), pct(wavescalar.LevelPod), pct(wavescalar.LevelDomain),
				pct(wavescalar.LevelCluster), pct(wavescalar.LevelGrid),
				100*st.OperandShare(), st.AvgOperandLatency())
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wstraffic:", err)
	os.Exit(1)
}
