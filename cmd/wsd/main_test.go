package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonSmoke builds the wsd binary, starts it on a random port,
// exercises the API end to end over real HTTP, and SIGTERMs it: the
// daemon must drain gracefully (exit 0) with the completed result in the
// journal.
func TestDaemonSmoke(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal handling")
	}
	bin := buildWSD(t)
	journal := filepath.Join(t.TempDir(), "wsd.jsonl")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-journal", journal, "-drain", "60s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints "wsd: listening on http://HOST:PORT" once ready.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v", err)
	}
	go io.Copy(io.Discard, stdout)
	url := strings.TrimSpace(strings.TrimPrefix(line, "wsd: listening on "))
	if !strings.HasPrefix(url, "http://") {
		t.Fatalf("unexpected listen line %q", line)
	}

	body := `{"workload":"fft","scale":"tiny"}`
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}
	var first struct {
		Key    string          `json:"key"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if first.Cached || len(first.Result) == 0 {
		t.Fatalf("first run: cached=%v result=%s", first.Cached, first.Result)
	}

	// Same request again: deterministic simulation + cache means an
	// identical result without simulating.
	resp, err = http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var second struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !second.Cached {
		t.Error("second run not cached")
	}
	if string(second.Result) != string(first.Result) {
		t.Errorf("results differ:\n%s\nvs\n%s", first.Result, second.Result)
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`wsd_sims_total{outcome="completed"} 1`,
		"wsd_cache_hits_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// SIGTERM must drain gracefully: exit 0, journal intact.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDone := make(chan error, 1)
	go func() { waitDone <- cmd.Wait() }()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), first.Key) {
		t.Errorf("journal missing cell %s", first.Key)
	}
}

// buildWSD builds the daemon into a temporary directory and returns the
// binary's path.
func buildWSD(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "wsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestVersionFlag(t *testing.T) {
	bin := buildWSD(t)
	out, err := exec.Command(bin, "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("wsd -version: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "wsd ") {
		t.Errorf("version output %q", out)
	}
}

// TestBadFlagValuesRefused: a negative -workers, -cache-limit or
// -parallel, like a zero -queue, exits 1 with a message naming the
// flag instead of starting a daemon. A daemon that does start is killed
// when the context ends, which reads as exit -1.
func TestBadFlagValuesRefused(t *testing.T) {
	bin := buildWSD(t)
	for _, arg := range []string{"-workers=-3", "-cache-limit=-5", "-parallel=-2", "-queue=0"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", arg).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("wsd %s: %v, want exit status 1\n%s", arg, err, out)
			continue
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(arg, "-"), "=")
		if !strings.Contains(string(out), name) {
			t.Errorf("wsd %s: message %q does not name the flag", arg, out)
		}
	}
}

// deployFlags returns the "- -flag[=value]" items of every command: or
// args: list in a compose or Kubernetes file — one list per service or
// container — keyed by the file and line of the list's key.
func deployFlags(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lists := map[string][]string{}
	key, keyIndent := "", 0
	for i, line := range strings.Split(string(data), "\n") {
		item := strings.TrimSpace(line)
		indent := len(line) - len(strings.TrimLeft(line, " "))
		switch {
		case item == "command:" || item == "args:":
			key, keyIndent = fmt.Sprintf("%s:%d", path, i+1), indent
			lists[key] = nil
		case key == "" || item == "" || strings.HasPrefix(item, "#"):
		case indent <= keyIndent:
			key = ""
		case strings.HasPrefix(item, "- -"):
			lists[key] = append(lists[key], strings.TrimPrefix(item, "- "))
		}
	}
	return lists
}

// TestDeployFilesUseDefinedFlags: every flag docker-compose.yml and
// deploy/k8s.yaml pass to wsd is one the binary defines. Flags parse
// before -version is honoured, so the binary exits 0 on the deploy
// file's flags plus -version, and 2 on any flag it does not define.
func TestDeployFilesUseDefinedFlags(t *testing.T) {
	bin := buildWSD(t)
	for _, path := range []string{"../../docker-compose.yml", "../../deploy/k8s.yaml"} {
		lists := deployFlags(t, path)
		if len(lists) == 0 {
			t.Errorf("%s: no command: or args: list found", path)
		}
		for at, flags := range lists {
			if len(flags) == 0 {
				t.Errorf("%s: a list without flags", at)
			}
			if out, err := exec.Command(bin, append(flags, "-version")...).CombinedOutput(); err != nil {
				t.Errorf("%s: wsd %s -version: %v\n%s", at, strings.Join(flags, " "), err, out)
			}
		}
	}
}
