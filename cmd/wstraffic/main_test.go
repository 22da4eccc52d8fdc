package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadThreadsRefusedBeforeOutput: a thread count outside the kernel's
// range (here -2) exits 1 with nothing on stdout, not after the table
// header.
func TestBadThreadsRefusedBeforeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the wstraffic binary")
	}
	bin := filepath.Join(t.TempDir(), "wstraffic")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, "-app", "fft", "-threads", "-2")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), `[1, 64], the limit of "fft"`) {
		t.Errorf("wstraffic -threads -2: %v, stdout %q, stderr %q; want exit 1, empty stdout, fft's limit named", err, stdout.String(), stderr.String())
	}
}
