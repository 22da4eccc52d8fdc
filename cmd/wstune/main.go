// Command wstune reproduces Table 4: the per-application matching-table
// tuning (k_opt, u_opt, virtualization ratio). Every k and u step is one
// cell of the exploration engine, so a journaled run resumes at the step it
// was interrupted in and its journal is ordinary sweep data.
//
// Usage:
//
//	wstune                 # tune every bundled workload
//	wstune -app gzip       # tune one
//	wstune -journal t.jsonl -resume   # simulate only the steps not yet journaled
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"wavescalar"
	"wavescalar/internal/cli"
	"wavescalar/internal/version"
)

func main() {
	app := flag.String("app", "", "tune only this workload")
	scale := flag.String("scale", "tiny", "workload scale: tiny, small, medium")
	journalPath := flag.String("journal", "", "append each completed k/u step (one cell) to this JSONL journal")
	resume := flag.Bool("resume", false, "replay the journal first and simulate only the missing cells")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = none)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Line("wstune"))
		return
	}
	if *resume && *journalPath == "" {
		fail(errors.New("-resume requires -journal"))
	}
	if err := cli.NonNegative(flag.CommandLine, "timeout"); err != nil {
		fail(err)
	}

	sc, err := cli.ParseScale(*scale)
	if err != nil {
		fail(err)
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []wavescalar.ExploreOption{wavescalar.WithScale(sc)}
	if *journalPath != "" {
		opts = append(opts, wavescalar.WithJournal(*journalPath, *resume))
	}
	exp, err := wavescalar.NewExplorer(opts...)
	if err != nil {
		fail(err)
	}
	defer exp.Close()
	if *resume {
		fmt.Fprintf(os.Stderr, "resumed %d journaled cells from %s\n", exp.Resumed(), *journalPath)
	}

	fmt.Println("Table 4: matching-table tuning (k_opt on an infinite table;")
	fmt.Println("u_opt with V=256 and M = V*k_opt/u; ratio = k_opt/u_opt)")
	fmt.Println()
	fmt.Printf("%-12s %6s %6s %12s\n", "application", "u_opt", "k_opt", "virt. ratio")
	var tunings []wavescalar.Tuning
	cached := 0
	for _, w := range apps {
		tn, hit, err := exp.Tune(ctx, w, sc)
		if err != nil {
			if ctx.Err() != nil {
				if cerr := exp.Close(); cerr != nil {
					fmt.Fprintln(os.Stderr, "wstune: closing journal:", cerr)
				}
				fmt.Fprintln(os.Stderr, "wstune:", err)
				if *journalPath != "" {
					fmt.Fprintf(os.Stderr, "wstune: completed cells are journaled; rerun with -journal %s -resume to continue\n", *journalPath)
				}
				os.Exit(3)
			}
			fail(err)
		}
		if hit {
			cached++
		}
		tunings = append(tunings, tn)
		fmt.Printf("%-12s %6d %6d %12.2f\n", tn.App, tn.UOpt, tn.KOpt, tn.Ratio)
	}
	if cached > 0 {
		fmt.Fprintf(os.Stderr, "wstune: %d of %d tunings served from the journal/cache\n", cached, len(apps))
	}
	if len(tunings) > 1 {
		max := tunings[0].Ratio
		for _, t := range tunings {
			if t.Ratio > max {
				max = t.Ratio
			}
		}
		fmt.Printf("\nmaximum ratio %.2f -> the design sweep fixes M/V = 1 (the paper's conservative choice)\n", max)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wstune:", err)
	os.Exit(1)
}
