package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"wavescalar/internal/workload"
)

const sample = `{
	"scenario": "v1",
	"name": "tile-study",
	"workload": {"gemm": {"order": "os", "tm": 8, "tn": 8, "tk": 4}},
	"scale": "small",
	"threads": [1, 2],
	"phases": [
		{"name": "warm"},
		{"name": "conv", "workload": {"name": "conv-ws-4x4x2"}, "threads": [1]}
	]
}`

func TestParseRoundTrip(t *testing.T) {
	s, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	phases, err := s.ResolvePhases()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	// Phase 1 inherits the top-level tiled workload, scale, and threads.
	if phases[0].Workload.Name != "gemm-os-8x8x4" {
		t.Errorf("phase 1 workload %q", phases[0].Workload.Name)
	}
	if phases[0].ScaleName != "small" || phases[0].Scale != workload.Small {
		t.Errorf("phase 1 scale %q", phases[0].ScaleName)
	}
	if len(phases[0].Threads) != 2 || phases[0].Threads[1] != 2 {
		t.Errorf("phase 1 threads %v", phases[0].Threads)
	}
	// Phase 2 overrides the workload and the threads.
	if phases[1].Workload.Name != "conv-ws-4x4x2" {
		t.Errorf("phase 2 workload %q", phases[1].Workload.Name)
	}
	if len(phases[1].Threads) != 1 || phases[1].Threads[0] != 1 {
		t.Errorf("phase 2 threads %v", phases[1].Threads)
	}
}

// TestDigestCanonical: the digest depends on content, not formatting, and
// distinguishes any semantic change.
func TestDigestCanonical(t *testing.T) {
	a, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	// Re-indent and reorder keys; same content.
	var m map[string]any
	if err := json.Unmarshal([]byte(sample), &m); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.MarshalIndent(m, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Error("digest should be independent of document formatting")
	}
	if len(a.Digest()) != 64 {
		t.Errorf("digest %q is not a sha256 hex string", a.Digest())
	}

	c, err := Parse([]byte(strings.Replace(sample, `"tm": 8`, `"tm": 4`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == c.Digest() {
		t.Error("digest should change when the tile shape changes")
	}
}

func TestMinimalScenario(t *testing.T) {
	s, err := Parse([]byte(`{"scenario": "v1", "workload": {"name": "fft"}}`))
	if err != nil {
		t.Fatal(err)
	}
	phases, err := s.ResolvePhases()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(phases))
	}
	p := phases[0]
	if p.Workload.Name != "fft" || p.ScaleName != "tiny" || len(p.Threads) != 1 || p.Threads[0] != 1 {
		t.Errorf("defaults not applied: %+v", p)
	}
}

func TestParseRejects(t *testing.T) {
	bad := map[string]string{
		"missing version":    `{"workload": {"name": "fft"}}`,
		"wrong version":      `{"scenario": "v2", "workload": {"name": "fft"}}`,
		"numeric version":    `{"scenario": 1, "workload": {"name": "fft"}}`,
		"unknown field":      `{"scenario": "v1", "workload": {"name": "fft"}, "speed": 9}`,
		"trailing data":      `{"scenario": "v1", "workload": {"name": "fft"}} {}`,
		"no workload":        `{"scenario": "v1", "scale": "tiny"}`,
		"two workload forms": `{"scenario": "v1", "workload": {"name": "fft", "gemm": {"order": "os", "tm": 4, "tn": 4, "tk": 4}}}`,
		"unknown workload":   `{"scenario": "v1", "workload": {"name": "nope"}}`,
		"bad tile shape":     `{"scenario": "v1", "workload": {"gemm": {"order": "os", "tm": 3, "tn": 4, "tk": 4}}}`,
		"bad dataflow order": `{"scenario": "v1", "workload": {"conv": {"order": "zz", "tx": 4, "ty": 4, "tc": 2}}}`,
		"bad scale":          `{"scenario": "v1", "workload": {"name": "fft"}, "scale": "huge"}`,
		"zero threads":       `{"scenario": "v1", "workload": {"name": "fft"}, "threads": [0]}`,
		"bad phase workload": `{"scenario": "v1", "phases": [{"workload": {"name": "nope"}}]}`,
		"phase w/o workload": `{"scenario": "v1", "phases": [{"scale": "tiny"}]}`,
		"fault script":       `{"scenario": "v1", "workload": {"name": "fft"}, "fault": {"seed": 7}}`,
		"phase fault script": `{"scenario": "v1", "phases": [{"workload": {"name": "fft"}, "fault": {"seed": 7}}]}`,
		"not an object":      `["scenario", "v1"]`,
	}
	for what, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: Parse should reject %s", what, doc)
		} else if !errors.Is(err, ErrBadScenario) {
			t.Errorf("%s: error %v should wrap ErrBadScenario", what, err)
		}
	}
}

// FuzzParseScenario: Parse meets documents posted by clients and lines of
// the scenario store. It must never panic, and whatever it accepts must
// resolve, digest, and survive its own canonical encoding: re-parsing the
// re-marshalled document gives the same digest (the store's dedup rests
// on that).
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte(`{"scenario": "v1", "workload": {"name": "fft"}}`))
	f.Add([]byte(`{"scenario": "v1", "workload": {"name": "fft"}} {}`))
	f.Add([]byte(`{"scenario": "v1", "workload": {"conv": {"order": "zz", "tx": 4, "ty": 4, "tc": 2}}}`))
	f.Add([]byte(`{"scenario": "v1", "phases": [{"scale": "tiny"}]}`))
	f.Add([]byte(`["scenario", "v1"]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrBadScenario) {
				t.Fatalf("rejection %v does not wrap ErrBadScenario", err)
			}
			return
		}
		if _, err := s.ResolvePhases(); err != nil {
			t.Fatalf("accepted scenario does not resolve: %v", err)
		}
		digest := s.Digest()
		canonical, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, canonical)
		}
		if again.Digest() != digest {
			t.Fatalf("digest changed across re-marshal: %s -> %s\n%s", digest, again.Digest(), canonical)
		}
	})
}
