package validate

import "fmt"

// FuzzOptions configures one fuzzing run.
type FuzzOptions struct {
	// Seed roots the seed tree (default 1); Seeds is how many cases to
	// draw from it (default 50).
	Seed  uint64
	Seeds int
	// Budget bounds total simulator runs; 0 means unlimited. The run
	// stops drawing new cases once the budget is spent (cases already
	// started finish), so a budgeted run is still deterministic for a
	// given (Seed, Seeds, Budget).
	Budget int
	// ShrinkBudget bounds the Check invocations spent minimizing each
	// failure (default 150).
	ShrinkBudget int
	// CorpusDir, when set, exports every shrunk failure as a corpus
	// witness (see corpus.go) so a red run automatically grows the
	// checked-in regression corpus.
	CorpusDir string
	// Progress, when non-nil, receives one line per checked case.
	Progress func(i int, c Case, failed bool)
}

// FuzzReport is the machine-readable outcome of a fuzzing run. It
// contains no timestamps or durations: the same (seed, seeds, budget)
// tree produces a byte-identical report, which is what lets CI diff one
// run against another.
type FuzzReport struct {
	Schema string `json:"schema"`
	Seed   uint64 `json:"seed"`
	Seeds  int    `json:"seeds"`
	// Checked counts cases actually drawn (< Seeds if Budget ran out);
	// Sims the simulator runs spent, including shrinking.
	Checked int `json:"checked"`
	Sims    int `json:"sims"`
	// Failures are the shrunk, tokenized divergences. Pass is their
	// absence.
	Failures []Failure `json:"failures"`
	Pass     bool      `json:"pass"`
}

// FuzzSchema versions the report format; v2 dropped v1's fault-case count
// and degradation curve.
const FuzzSchema = "wavescalar-validate-fuzz/v2"

// Fuzz draws Seeds cases from the seed tree, checks each differentially
// and metamorphically, shrinks every failure to a minimal case, and
// stamps each with a repro token. Infrastructure errors (a generated
// case the harness itself cannot build) abort the run — the generator is
// supposed to stay inside the buildable space, so they are harness bugs,
// not simulator bugs.
func (ck *Checker) Fuzz(opt FuzzOptions) (*FuzzReport, error) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Seeds <= 0 {
		opt.Seeds = 50
	}
	rep := &FuzzReport{Schema: FuzzSchema, Seed: opt.Seed, Seeds: opt.Seeds, Failures: []Failure{}}

	for i := 0; i < opt.Seeds; i++ {
		if opt.Budget > 0 && ck.Sims >= opt.Budget {
			break
		}
		c := GenerateCase(CaseSeed(opt.Seed, i))
		f, err := ck.Check(c)
		if err != nil {
			return nil, fmt.Errorf("validate: seed %d case %d (%s): %w", opt.Seed, i, SeedToken(c.Seed), err)
		}
		rep.Checked++
		if opt.Progress != nil {
			opt.Progress(i, c, f != nil)
		}
		if f != nil {
			shrunk := ck.Shrink(c, f.Kind, opt.ShrinkBudget)
			final, err := ck.Check(shrunk)
			if err != nil || final == nil || final.Kind != f.Kind {
				// The shrunk case must still fail; if the harness lost the
				// failure along the way, report the original.
				final = f
				shrunk = c
			}
			final.Case = shrunk
			final.Repro = SeedToken(c.Seed)
			if shrunkDiffers(c, shrunk) {
				final.Repro = CaseToken(shrunk)
			}
			if opt.CorpusDir != "" {
				if _, err := ExportFailure(opt.CorpusDir, final); err != nil {
					return nil, fmt.Errorf("validate: exporting corpus witness: %w", err)
				}
			}
			rep.Failures = append(rep.Failures, *final)
		}
	}

	rep.Sims = ck.Sims
	rep.Pass = len(rep.Failures) == 0
	return rep, nil
}

// shrunkDiffers reports whether shrinking changed the case (if not, the
// cheaper seed token reproduces it).
func shrunkDiffers(orig, shrunk Case) bool {
	return CaseToken(orig) != CaseToken(shrunk)
}
