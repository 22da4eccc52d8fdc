// Command wsvalidate is the continuous differential-validation harness:
// it fuzzes the timed simulator against the reference interpreter and
// the metamorphic invariants, recomputes the paper's headline trends and
// gates them against checked-in expectations, and replays any failure
// from a one-line repro token.
//
// Usage:
//
//	wsvalidate fuzz -seeds 200            # differential + metamorphic fuzzing
//	wsvalidate fuzz -seed 7 -budget 2000  # bounded, fully deterministic
//	wsvalidate trends                     # recompute fig6/fig7/table4, gate drift
//	wsvalidate trends -update             # pin current values as expectations
//	wsvalidate -repro s:12345             # replay one failure by token
//
// Exit status: 0 clean, 1 validation failure (divergence or drift),
// 2 usage or infrastructure error. Reports are versioned JSON with no
// timestamps — the same seed tree produces byte-identical output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"wavescalar/internal/cli"
	"wavescalar/internal/validate"
	"wavescalar/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	top := flag.NewFlagSet("wsvalidate", flag.ContinueOnError)
	repro := top.String("repro", "", "replay one case from a repro token (s:<seed> or c:<blob>)")
	showVersion := top.Bool("version", false, "print version and exit")
	top.Usage = usage(top)
	if err := top.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Println(version.Line("wsvalidate"))
		return 0
	}
	if *repro != "" {
		return runRepro(*repro)
	}
	rest := top.Args()
	if len(rest) == 0 {
		top.Usage()
		return 2
	}
	switch rest[0] {
	case "fuzz":
		return runFuzz(rest[1:])
	case "trends":
		return runTrends(rest[1:])
	default:
		fmt.Fprintf(os.Stderr, "wsvalidate: unknown command %q (want fuzz or trends)\n", rest[0])
		return 2
	}
}

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintf(os.Stderr, "usage: wsvalidate [-repro <token>] <fuzz|trends> [flags]\n")
		fs.PrintDefaults()
	}
}

func runFuzz(args []string) int {
	fs := flag.NewFlagSet("wsvalidate fuzz", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "root seed for the case tree")
	seeds := fs.Int("seeds", 200, "number of cases to generate and check")
	budget := fs.Int("budget", 0, "stop drawing new cases after this many simulator runs (0 = unlimited)")
	shrinkBudget := fs.Int("shrink-budget", 150, "max checks spent minimizing each failure")
	corpus := fs.String("corpus", "", "export every shrunk failure as a witness into this directory")
	out := fs.String("o", "", "write the JSON report here instead of stdout")
	quiet := fs.Bool("quiet", false, "no per-case progress on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ck := &validate.Checker{}
	opt := validate.FuzzOptions{
		Seed: *seed, Seeds: *seeds, Budget: *budget,
		ShrinkBudget: *shrinkBudget, CorpusDir: *corpus,
	}
	if !*quiet {
		opt.Progress = func(i int, c validate.Case, failed bool) {
			status := "ok"
			if failed {
				status = "FAIL"
			}
			fmt.Fprintf(os.Stderr, "case %3d/%d %-4s %-22s C%dD%dP%d threads=%d\n",
				i+1, *seeds, status, c.Workload,
				c.Arch.Clusters, c.Arch.Domains, c.Arch.PEs, c.Threads)
		}
	}
	rep, err := ck.Fuzz(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
		return 2
	}
	if err := emitJSON(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
		return 2
	}
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "\nFAIL %s: %s\n%sreplay:   wsvalidate -repro %s\n",
				f.Kind, f.Detail, f.Case.Describe(), f.Repro)
		}
		return 1
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "ok: %d cases, %d simulator runs, no divergence\n",
			rep.Checked, rep.Sims)
	}
	return 0
}

func runTrends(args []string) int {
	fs := flag.NewFlagSet("wsvalidate trends", flag.ContinueOnError)
	expectPath := fs.String("expect", filepath.Join("results", "validate_expectations.json"),
		"checked-in expectations to gate against")
	out := fs.String("o", "", "write the JSON drift report here instead of stdout")
	update := fs.Bool("update", false, "rewrite the expectations file from the recomputed values")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Load before the (slow) recompute so a missing file fails fast.
	var exp *validate.Expectations
	if !*update {
		var err error
		exp, err = validate.LoadExpectations(*expectPath)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				fmt.Fprintf(os.Stderr, "wsvalidate: no expectations at %s (run `wsvalidate trends -update` to pin them)\n", *expectPath)
				return 2
			}
			fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	trends, err := validate.ComputeTrends(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
		return 2
	}
	if *update {
		exp = validate.ExpectationsFrom(trends)
		if err := writeJSONFile(*expectPath, exp); err != nil {
			fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "pinned %d expectations to %s\n", len(exp.Metrics), *expectPath)
	}
	rep := validate.Drift(trends, exp)
	if err := emitJSON(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
		return 2
	}
	if !rep.Pass {
		for _, m := range rep.Metrics {
			if !m.Pass {
				fmt.Fprintf(os.Stderr, "DRIFT %-28s value %.4f expected %.4f (tolerance %.2f, drift %.4f)\n",
					m.Name, m.Value, m.Expected, m.Tolerance, m.Drift)
			}
		}
		for _, name := range rep.Unmatched {
			fmt.Fprintf(os.Stderr, "STALE %-28s expected but not recomputed\n", name)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "ok: %d trend metrics within tolerance\n", len(rep.Metrics))
	return 0
}

func runRepro(token string) int {
	c, err := validate.ParseToken(token)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "replaying %s\n%s", token, c.Describe())
	ck := &validate.Checker{}
	f, err := ck.Check(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
		return 2
	}
	if f != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", f.Kind, f.Detail)
		f.Repro = token
		if err := emitJSON("", f); err != nil {
			fmt.Fprintf(os.Stderr, "wsvalidate: %v\n", err)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "ok: case passes (%d simulator runs)\n", ck.Sims)
	return 0
}

func emitJSON(path string, v any) error {
	if path == "" {
		return cli.WriteJSON(os.Stdout, v)
	}
	return writeJSONFile(path, v)
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cli.WriteJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
