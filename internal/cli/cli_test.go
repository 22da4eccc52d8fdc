package cli

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

func TestParseScaleRoundTrip(t *testing.T) {
	for name, want := range map[string]workload.Scale{
		"tiny": workload.Tiny, "small": workload.Small, "medium": workload.Medium,
	} {
		if sc, err := ParseScale(name); err != nil || sc != want {
			t.Errorf("ParseScale(%q) = %+v, %v; want %+v", name, sc, err, want)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted an unknown scale")
	}
}

func TestWriteJSONConvention(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, map[string]string{"q": "a<b>"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("missing trailing newline")
	}
	if !strings.Contains(out, `a<b>`) {
		t.Errorf("HTML escaping should be off, got %q", out)
	}
}

func TestTrafficRowShares(t *testing.T) {
	w, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	var st sim.Stats
	st.Traffic[sim.LevelSelf][sim.ClassOperand] = 75
	st.Traffic[sim.LevelGrid][sim.ClassMemory] = 25
	row := NewTrafficRow(w, 4, 2, "tiny", &st)
	if row.Suite != "splash2" || row.Clusters != 4 || row.Threads != 2 {
		t.Errorf("row identity wrong: %+v", row)
	}
	if row.Share["pe"] != 75 || row.Share["grid"] != 25 {
		t.Errorf("shares wrong: %+v", row.Share)
	}
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"app"`, `"share_pct"`, `"operand_share"`, `"messages"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("encoded row missing %s: %s", field, b)
		}
	}
}
