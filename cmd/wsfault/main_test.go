package main

import (
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildWSFault builds the binary into a temporary directory and returns
// its path.
func buildWSFault(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the wsfault binary")
	}
	bin := filepath.Join(t.TempDir(), "wsfault")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDefaultThreadsFitTheKernel: left at its default, -threads is 1 on a
// single-threaded kernel and 4 on one that takes threads, and the report
// states the count that ran. An explicit count over the kernel's limit
// exits 1 naming the limit.
func TestDefaultThreadsFitTheKernel(t *testing.T) {
	bin := buildWSFault(t)
	for app, want := range map[string]int{"mcf": 1, "fft": 4} {
		out, err := exec.Command(bin, "-app", app, "-scale", "tiny", "-fractions", "0").Output()
		if err != nil {
			t.Fatalf("wsfault -app %s: %v", app, err)
		}
		var rep report
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("wsfault -app %s: %v\n%s", app, err, out)
		}
		if rep.Threads != want || len(rep.Rows) != 1 || rep.Rows[0].AIPC <= 0 {
			t.Errorf("wsfault -app %s: threads %d, rows %+v; want %d threads and one completed baseline row",
				app, rep.Threads, rep.Rows, want)
		}
	}

	out, err := exec.Command(bin, "-app", "gzip", "-threads", "4", "-fractions", "0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), `[1, 1], the limit of "gzip"`) {
		t.Errorf("wsfault -app gzip -threads 4: %v, output %q; want exit 1 naming gzip's limit", err, out)
	}
}
