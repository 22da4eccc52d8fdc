package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// wireResult is the JSON object a run prints as its last line.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs one workload in a process of its own, so that peak_rss_mb
// is that run's and nothing carries over, and returns its last line
// decoded. The child's output passes through.
func runChild(o options, workload string) (*wireResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	err = cmd.Run()
	os.Stdout.Write(out.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	res := &wireResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: last line is not the result object: %w", workload, err)
	}
	return res, nil
}

// runAA is the A/A check: the same workload k times back to back. With
// -trace 0 two runs may differ by at most each end-to-end metric's bound;
// with -trace 1 every count metric must be bit-identical.
func runAA(o options) error {
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	values := make(map[string][]float64)
	for i := 0; i < o.aa; i++ {
		res, err := runChild(o, o.workload)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("run %d of %s is not correct (%d of %d failed)", i+1, o.workload, res.Failed, res.Attempted)
		}
		for _, d := range defs {
			values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
		}
	}
	var over []string
	fmt.Printf("# A/A %s x%d: metric min median max (max-min)/median bound\n", o.workload, o.aa)
	for _, d := range defs {
		v := append([]float64(nil), values[d.name]...)
		sort.Float64s(v)
		lo, hi, med := v[0], v[len(v)-1], median(v)
		spread := ratio(hi-lo, med)
		limit := "-"
		switch {
		case o.trace == 1 && d.count:
			limit = "exact"
			if lo != hi {
				over = append(over, d.name)
			}
		case o.trace != 1:
			limit = fmt.Sprint(d.bound)
			if spread > d.bound {
				over = append(over, d.name)
			}
		}
		fmt.Printf("%s %v %v %v %.4f %s\n", d.name, lo, med, hi, spread, limit)
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A %s: runs of the same code differ beyond the bound on %s", o.workload, strings.Join(over, ", "))
	}
	return nil
}
