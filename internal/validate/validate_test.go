package validate

import (
	"bytes"
	"compress/flate"
	"encoding/base64"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// TestFuzzCleanDeterministic runs a small fuzzing pass against the real
// simulator twice: both passes must find nothing and produce
// byte-identical reports.
func TestFuzzCleanDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing pass is slow")
	}
	run := func() []byte {
		ck := &Checker{}
		rep, err := ck.Fuzz(FuzzOptions{Seed: 7, Seeds: 12})
		if err != nil {
			t.Fatalf("fuzz: %v", err)
		}
		for _, f := range rep.Failures {
			t.Errorf("unexpected failure: %s (%s) repro %s", f.Kind, f.Detail, f.Repro)
		}
		if !rep.Pass {
			t.Fatalf("clean fuzz run did not pass")
		}
		if rep.Checked != 12 {
			t.Fatalf("checked %d cases, want 12", rep.Checked)
		}
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return doc
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("two identical fuzz runs produced different reports:\n%s\n--- vs ---\n%s", a, b)
	}
}

// TestGenerateCaseDeterministic: a case is a pure function of its seed,
// and distinct seeds explore distinct corners.
func TestGenerateCaseDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 42, 1 << 40} {
		a, b := GenerateCase(seed), GenerateCase(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateCase not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
	distinct := map[string]bool{}
	for i := 0; i < 50; i++ {
		c := GenerateCase(CaseSeed(1, i))
		distinct[c.Workload] = true
		if err := c.Config().Validate(); err != nil {
			t.Errorf("seed tree case %d: invalid config: %v", i, err)
		}
	}
	if len(distinct) < 5 {
		t.Errorf("50 cases hit only %d distinct workloads", len(distinct))
	}
}

// TestTokenRoundTrip covers both token forms.
func TestTokenRoundTrip(t *testing.T) {
	seed := CaseSeed(3, 14)
	c := GenerateCase(seed)

	got, err := ParseToken(SeedToken(seed))
	if err != nil {
		t.Fatalf("seed token: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("seed token round trip:\n%+v\n%+v", got, c)
	}

	// Mutate so the case is no longer any seed's output — the shape a
	// shrunk case has.
	c.Threads = 1
	c.Arch.Clusters = 1
	tok := CaseToken(c)
	got, err = ParseToken(tok)
	if err != nil {
		t.Fatalf("case token: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("case token round trip:\n%+v\n%+v", got, c)
	}

	for _, bad := range []string{"", "x", "q:1", "s:notanumber", "c:!!!", "c:AAAA"} {
		if _, err := ParseToken(bad); err == nil {
			t.Errorf("ParseToken(%q) accepted garbage", bad)
		}
	}

	// A case token from a revision that drew fault scripts is refused,
	// not replayed without its script.
	var buf bytes.Buffer
	zw, _ := flate.NewWriter(&buf, flate.BestCompression)
	zw.Write([]byte(`{"workload":"fft","iters":2,"footprint":512,"threads":1,"fault":{"seed":3}}`))
	zw.Close()
	faulted := "c:" + base64.RawURLEncoding.EncodeToString(buf.Bytes())
	if _, err := ParseToken(faulted); err == nil || !strings.Contains(err.Error(), `unknown field "fault"`) {
		t.Errorf("ParseToken of a faulted case token: %v, want the unknown field named", err)
	}
}

// buggySim corrupts thread 0's halt value on machines with at least two
// clusters — a stand-in for a real cross-cluster steering bug.
func buggySim(cfg sim.Config, inst *workload.Instance, threads int, fullScan bool) (*SimOutcome, error) {
	out, err := RealSim(cfg, inst, threads, fullScan)
	if err == nil && out.Err == nil && cfg.Arch.Clusters >= 2 {
		out.HaltValues[0]++
	}
	return out, err
}

// TestInjectedBugCaughtAndShrunk proves the harness catches an injected
// simulator bug, shrinks the failing case to a minimal repro, and prints
// a token that replays it.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking is slow")
	}
	ck := &Checker{RunSim: buggySim}
	rep, err := ck.Fuzz(FuzzOptions{Seed: 1, Seeds: 20})
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	if rep.Pass || len(rep.Failures) == 0 {
		t.Fatalf("injected bug not caught in 20 seeds")
	}
	f := rep.Failures[0]
	if f.Kind != KindHaltDiverged && f.Kind != KindNondeterminism {
		t.Fatalf("caught kind %s, want %s", f.Kind, KindHaltDiverged)
	}

	// The shrunk case must be minimal: the bug needs two clusters, so
	// shrinking must stop there while flattening everything else.
	if f.Case.Arch.Clusters < 2 {
		t.Errorf("shrunk case lost the bug trigger: %+v", f.Case)
	}
	if f.Case.Threads > 1 {
		t.Errorf("shrunk case kept %d threads", f.Case.Threads)
	}
	desc := f.Case.Describe()
	if lines := strings.Count(strings.TrimRight(desc, "\n"), "\n") + 1; lines > 10 {
		t.Errorf("shrunk repro is %d lines, want <= 10:\n%s", lines, desc)
	}

	// The token must replay to the same failure.
	if f.Repro == "" {
		t.Fatalf("failure carries no repro token")
	}
	replay, err := ParseToken(f.Repro)
	if err != nil {
		t.Fatalf("parse repro token: %v", err)
	}
	rf, err := ck.Check(replay)
	if err != nil {
		t.Fatalf("replay check: %v", err)
	}
	if rf == nil || rf.Kind != f.Kind {
		t.Fatalf("replayed token did not reproduce the %s failure: %+v", f.Kind, rf)
	}
}

// TestShrinkRejectsDifferentKind: shrinking never wanders to a different
// bug — candidates failing with another kind are rejected.
func TestShrinkRejectsDifferentKind(t *testing.T) {
	c := GenerateCase(CaseSeed(1, 0))
	calls := 0
	ck := &Checker{RunSim: func(cfg sim.Config, inst *workload.Instance, threads int, fullScan bool) (*SimOutcome, error) {
		calls++
		out, err := RealSim(cfg, inst, threads, fullScan)
		if err != nil || out.Err != nil {
			return out, err
		}
		if threads > 1 {
			out.HaltValues[0]++ // halt-divergence only with >1 thread
		} else {
			out.Mem[0xdead] = 1 // memory-divergence otherwise
		}
		return out, err
	}}
	c.Threads = 4
	c.Workload = "fft" // splash: supports many threads
	f, err := ck.Check(c)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if f == nil || f.Kind != KindHaltDiverged {
		t.Fatalf("setup: want halt divergence, got %+v", f)
	}
	shrunk := ck.Shrink(c, f.Kind, 60)
	if shrunk.Threads <= 1 {
		t.Errorf("shrink crossed into a different failure kind: threads=%d", shrunk.Threads)
	}
	if calls == 0 {
		t.Fatalf("hook never ran")
	}
}

// FuzzParseToken: repro tokens arrive on wsvalidate's command line and in
// corpus files. ParseToken must never panic, and a case it accepts must
// re-encode to a token that parses back to the same case and the same
// token.
func FuzzParseToken(f *testing.F) {
	c := GenerateCase(CaseSeed(3, 14))
	f.Add(SeedToken(c.Seed))
	f.Add(CaseToken(c))
	for _, bad := range []string{"", "x", "q:1", "s:notanumber", "c:!!!", "c:AAAA"} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, token string) {
		c, err := ParseToken(token)
		if err != nil {
			return
		}
		tok := CaseToken(c)
		back, err := ParseToken(tok)
		if err != nil {
			t.Fatalf("re-encoded token %q rejected: %v", tok, err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("case changed across its token:\n%+v\n%+v", c, back)
		}
		if again := CaseToken(back); again != tok {
			t.Fatalf("token not a fixed point: %q -> %q", tok, again)
		}
	})
}
