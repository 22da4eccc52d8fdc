package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildWSim builds the binary into a temporary directory and returns its
// path.
func buildWSim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the wsim binary")
	}
	bin := filepath.Join(t.TempDir(), "wsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestTracedRun: -trace and -csv write both artifacts; the text report
// ends with the hottest-PEs/links summary, and under -json stdout is
// still exactly one JSON object, whose stats carry the halt counters.
func TestTracedRun(t *testing.T) {
	bin := buildWSim(t)
	dir := t.TempDir()
	trace, csv := filepath.Join(dir, "t.json"), filepath.Join(dir, "c.csv")
	args := []string{"-app", "fft", "-scale", "tiny", "-c", "2", "-trace", trace, "-csv", csv}

	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("wsim %v: %v", args, err)
	}
	for _, want := range []string{"wrote " + trace + " and " + csv, "hottest PEs", "hottest inter-cluster links"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	doc, err := os.ReadFile(trace)
	if err != nil || !json.Valid(doc) {
		t.Errorf("trace %s: %v, valid JSON %v", trace, err, json.Valid(doc))
	}
	if rows, err := os.ReadFile(csv); err != nil || !strings.HasPrefix(string(rows), "cycle,fires,") {
		t.Errorf("counter CSV %s: %v, %.40q", csv, err, rows)
	}

	out, err = exec.Command(bin, append(args, "-json")...).Output()
	if err != nil {
		t.Fatalf("wsim -json: %v", err)
	}
	var rep struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Errorf("-json stdout is not one JSON object: %v\n%s", err, out)
	}
	// The halt counters ride in the stats object; fft keeps firing after
	// its threads halt, so both are below the totals.
	for _, k := range [][2]string{{"CountableAtHalt", "Countable"}, {"DynamicAtHalt", "Dynamic"}} {
		atHalt, ok := rep.Stats[k[0]].(float64)
		total, _ := rep.Stats[k[1]].(float64)
		if !ok || atHalt <= 0 || atHalt >= total {
			t.Errorf("-json stats: %s = %v, %s = %v; want 0 < %[1]s < %[3]s", k[0], rep.Stats[k[0]], k[1], rep.Stats[k[1]])
		}
	}
}

// TestThreadsOverLimitExit1: a thread count over the kernel's limit exits
// 1 naming the limit.
func TestThreadsOverLimitExit1(t *testing.T) {
	bin := buildWSim(t)
	out, err := exec.Command(bin, "-app", "gzip", "-threads", "4", "-scale", "tiny").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), `[1, 1], the limit of "gzip"`) {
		t.Errorf("wsim -app gzip -threads 4: %v, output %q; want exit 1 naming gzip's limit", err, out)
	}
}

// TestBadMachineRefusedBeforeOutput: a machine that fails validation
// (here zero clusters) exits 1 with nothing on stdout, not after the
// "running ..." line.
func TestBadMachineRefusedBeforeOutput(t *testing.T) {
	bin := buildWSim(t)
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, "-app", "fft", "-scale", "tiny", "-c", "0")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "C0") {
		t.Errorf("wsim -c 0: %v, stdout %q, stderr %q; want exit 1, empty stdout, the machine named", err, stdout.String(), stderr.String())
	}
}

// TestBadThreadsRefusedBeforeOutput: a thread count outside the kernel's
// range (here 0) exits 1 with nothing on stdout, not after the
// "running ..." line.
func TestBadThreadsRefusedBeforeOutput(t *testing.T) {
	bin := buildWSim(t)
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, "-app", "fft", "-scale", "tiny", "-threads", "0")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), `[1, 64], the limit of "fft"`) {
		t.Errorf("wsim -threads 0: %v, stdout %q, stderr %q; want exit 1, empty stdout, fft's limit named", err, stdout.String(), stderr.String())
	}
}
