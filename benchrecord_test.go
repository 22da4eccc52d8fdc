package wavescalar_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// A benchRecord is one BENCH_<rev>.json at the root of the repository:
// the paired ledger runs behind a performance change and the claims they
// support. Each pair carries both sides' raw ledger JSON line (the last
// line a `bench/ledger` run prints) and the run's `# host` note, the
// slowness probe its timings were divided by.
type benchRecord struct {
	Parent  string       `json:"parent"`
	Change  string       `json:"change"`
	Command string       `json:"command"`
	Seeds   []int64      `json:"seeds"`
	Order   string       `json:"order"`
	Pairs   []benchPair  `json:"pairs"`
	Claims  []benchClaim `json:"claims"`
}

type benchPair struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Parent   benchRun `json:"parent"`
	Change   benchRun `json:"change"`
}

type benchRun struct {
	Host   string `json:"host"`
	Ledger struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]ledgerMetric `json:"metrics"`
	} `json:"ledger"`
}

type ledgerMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchClaim states a gain on one metric of one workload at one seed,
// with the numbers the ledger rule reads: the pairs run, the pairs the
// change won, both medians and the parent's quartiles.
type benchClaim struct {
	Metric       string  `json:"metric"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Better       string  `json:"better"`
	Pairs        int     `json:"pairs"`
	Wins         int     `json:"wins"`
	ParentMedian float64 `json:"parent_median"`
	ChangeMedian float64 `json:"change_median"`
	ParentQ1     float64 `json:"parent_q1"`
	ParentQ3     float64 `json:"parent_q3"`
	// Holds is the rule's verdict on these numbers. A record keeps a
	// claim that does not hold (on a held-back seed, say) so it is not
	// dropped unseen; its verdict must still follow from the pairs.
	Holds bool `json:"holds"`
}

// benchMedian is the median of v.
func benchMedian(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// benchQuartiles are the first and third quartiles of v as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), the way
// bench/ledger reads a spread. v has at least two values.
func benchQuartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(1), q(3)
}

// checkClaim re-derives c from the record's pairs of its workload and
// seed, and returns an error when a recorded number or the recorded
// verdict does not follow from the pairs. The ledger rule holds when the
// change wins at least nine tenths of the pairs (ties count for neither
// side) and its median is better than the parent's by more than the
// parent's quartile distance. Every run of the pairs must be correct, and
// the change may fail no more operations than the parent.
func checkClaim(rec *benchRecord, c benchClaim) error {
	var parent, change []float64
	wins := 0
	for _, p := range rec.Pairs {
		if p.Workload != c.Workload || p.Seed != c.Seed {
			continue
		}
		pm, ok1 := p.Parent.Ledger.Metrics[c.Metric]
		cm, ok2 := p.Change.Ledger.Metrics[c.Metric]
		if !ok1 || !ok2 {
			return fmt.Errorf("a pair has no %s", c.Metric)
		}
		if !p.Parent.Ledger.Correct || !p.Change.Ledger.Correct {
			return fmt.Errorf("a pair has a run whose results are not correct")
		}
		if p.Change.Ledger.Failed > p.Parent.Ledger.Failed {
			return fmt.Errorf("a pair's change failed %d operations, its parent %d", p.Change.Ledger.Failed, p.Parent.Ledger.Failed)
		}
		parent, change = append(parent, pm.Value), append(change, cm.Value)
		switch c.Better {
		case "lower":
			if cm.Value < pm.Value {
				wins++
			}
		case "higher":
			if cm.Value > pm.Value {
				wins++
			}
		default:
			return fmt.Errorf("better is %q, want lower or higher", c.Better)
		}
	}
	if len(parent) < 2 {
		return fmt.Errorf("%d pairs, too few for quartiles", len(parent))
	}
	pMed, cMed := benchMedian(parent), benchMedian(change)
	q1, q3 := benchQuartiles(parent)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	switch {
	case c.Pairs != len(parent) || c.Wins != wins:
		return fmt.Errorf("records %d wins of %d pairs; the pairs give %d of %d", c.Wins, c.Pairs, wins, len(parent))
	case !near(c.ParentMedian, pMed) || !near(c.ChangeMedian, cMed):
		return fmt.Errorf("records medians %v and %v; the pairs give %v and %v", c.ParentMedian, c.ChangeMedian, pMed, cMed)
	case !near(c.ParentQ1, q1) || !near(c.ParentQ3, q3):
		return fmt.Errorf("records parent quartiles [%v, %v]; the pairs give [%v, %v]", c.ParentQ1, c.ParentQ3, q1, q3)
	}
	gain := pMed - cMed
	if c.Better == "higher" {
		gain = -gain
	}
	if holds := 10*wins >= 9*len(parent) && gain > q3-q1; holds != c.Holds {
		return fmt.Errorf("records holds=%v; %d wins of %d and medians %v → %v against a parent quartile distance %v give %v",
			c.Holds, wins, len(parent), pMed, cMed, q3-q1, holds)
	}
	return nil
}

// loadBenchRecords parses every BENCH_*.json at the root.
func loadBenchRecords(t *testing.T) map[string]*benchRecord {
	t.Helper()
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json at the root")
	}
	recs := make(map[string]*benchRecord, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		rec := new(benchRecord)
		if err := dec.Decode(rec); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		recs[f] = rec
	}
	return recs
}

// TestBenchRecords holds every BENCH_<rev>.json to its own numbers: it is
// named after its change's revision, every pair's runs are complete,
// every claim and its verdict follow from the pairs by the ledger rule,
// and the first claim, the one the record is made for, holds.
func TestBenchRecords(t *testing.T) {
	for f, rec := range loadBenchRecords(t) {
		if want := "BENCH_" + rec.Change + ".json"; f != want {
			t.Errorf("%s names change %s; the file should be %s", f, rec.Change, want)
		}
		if rec.Parent == "" || rec.Command == "" || len(rec.Seeds) == 0 || len(rec.Claims) == 0 {
			t.Errorf("%s: parent, command, seeds and claims must all be given", f)
		}
		for i, p := range rec.Pairs {
			if !strings.HasPrefix(p.Parent.Host, "# host slowness") || !strings.HasPrefix(p.Change.Host, "# host slowness") {
				t.Errorf("%s: pair %d (%s, seed %d) lacks a run's host note", f, i, p.Workload, p.Seed)
			}
			if len(p.Parent.Ledger.Metrics) == 0 || len(p.Change.Ledger.Metrics) == 0 {
				t.Errorf("%s: pair %d (%s, seed %d) lacks a run's metrics", f, i, p.Workload, p.Seed)
			}
		}
		if len(rec.Claims) > 0 && !rec.Claims[0].Holds {
			t.Errorf("%s: its first claim does not hold", f)
		}
		for _, c := range rec.Claims {
			if err := checkClaim(rec, c); err != nil {
				t.Errorf("%s: claim %s on %s, seed %d: %v", f, c.Metric, c.Workload, c.Seed, err)
			}
		}
	}
}

// TestBenchRecordCatchesFlippedWin: turning one claimed win into a loss
// in a copy of a record makes its claim fail the check.
func TestBenchRecordCatchesFlippedWin(t *testing.T) {
	for f, rec := range loadBenchRecords(t) {
		c := rec.Claims[0]
		if err := checkClaim(rec, c); err != nil {
			t.Fatalf("%s: the unaltered claim fails: %v", f, err)
		}
		cp := *rec
		cp.Pairs = append([]benchPair(nil), rec.Pairs...)
		flipped := false
		for i, p := range cp.Pairs {
			if p.Workload != c.Workload || p.Seed != c.Seed {
				continue
			}
			pv, cv := p.Parent.Ledger.Metrics[c.Metric], p.Change.Ledger.Metrics[c.Metric]
			if (c.Better == "lower") != (cv.Value < pv.Value) {
				continue // not a win
			}
			loss := p.Change
			loss.Ledger.Metrics = maps.Clone(p.Change.Ledger.Metrics)
			cv.Value = 2 * pv.Value
			if c.Better == "higher" {
				cv.Value = pv.Value / 2
			}
			loss.Ledger.Metrics[c.Metric] = cv
			cp.Pairs[i].Change = loss
			flipped = true
			break
		}
		if !flipped {
			t.Fatalf("%s: the first claim has no win to flip", f)
		}
		if err := checkClaim(&cp, c); err == nil {
			t.Errorf("%s: a copy with one win turned into a loss still passes", f)
		}
	}
}
