// Command wsvalidate is the continuous differential-validation harness:
// it fuzzes the timed simulator against the reference interpreter and
// the metamorphic invariants, and replays any failure from a one-line
// repro token.
//
// Usage:
//
//	wsvalidate fuzz -seeds 200            # differential + metamorphic fuzzing
//	wsvalidate fuzz -seed 7 -budget 2000  # bounded, fully deterministic
//	wsvalidate -repro s:12345             # replay one failure by token
//
// Exit status: 0 clean, 1 validation failure (a divergence), 2 usage or
// infrastructure error. Reports are versioned JSON with no timestamps —
// the same seed tree produces byte-identical output.
package main

import (
	"flag"
	"fmt"
	"os"

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
	default:
		fmt.Fprintf(os.Stderr, "wsvalidate: unknown command %q (want fuzz)\n", rest[0])
		return 2
	}
}

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintf(os.Stderr, "usage: wsvalidate [-repro <token>] fuzz [flags]\n")
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
