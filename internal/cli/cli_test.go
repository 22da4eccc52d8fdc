package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
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

// TestNonNegative: zero and positive int and duration flags pass, and a
// negative one is refused with a message naming it, whichever of the
// named flags it is. Flags not named are not looked at.
func TestNonNegative(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the refused flag, "" if none
	}{
		{nil, ""},
		{[]string{"-max", "0", "-timeout", "0s"}, ""},
		{[]string{"-max", "20", "-parallel", "4", "-timeout", "1m"}, ""},
		{[]string{"-other", "-1"}, ""},
		{[]string{"-max", "-1"}, "-max -1"},
		{[]string{"-parallel", "-2"}, "-parallel -2"},
		{[]string{"-timeout", "-3s"}, "-timeout -3s"},
		{[]string{"-max", "5", "-timeout", "-1m"}, "-timeout -1m0s"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Int("max", 0, "")
		fs.Int("parallel", 0, "")
		fs.Int("other", 0, "")
		fs.Duration("timeout", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := NonNegative(fs, "max", "parallel", "timeout")
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+" ")):
			t.Errorf("%v: got %v, want an error naming %q", tc.args, err, tc.want)
		}
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

// TestThreads: a count in [1, limit] passes; 0, a negative count and one
// over the limit are refused naming the workload and its limit.
func TestThreads(t *testing.T) {
	fft, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w    workload.Workload
		n    int
		want string // "" if accepted
	}{
		{fft, 1, ""},
		{fft, 64, ""},
		{gzip, 1, ""},
		{fft, 0, `thread count 0 outside [1, 64], the limit of "fft"`},
		{fft, -2, `thread count -2 outside [1, 64], the limit of "fft"`},
		{fft, 65, `thread count 65 outside [1, 64], the limit of "fft"`},
		{gzip, 4, `thread count 4 outside [1, 1], the limit of "gzip"`},
	} {
		err := Threads(tc.w, tc.n)
		if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
			t.Errorf("Threads(%s, %d) = %v, want %q", tc.w.Name, tc.n, err, tc.want)
		}
	}
}
