package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/area"
	"wavescalar/internal/fault"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// sprintfPreimage is CellKey's pre-image as every revision before the
// hand-written encoder produced it. It is the reference appendCellPreimage
// is held to, byte for byte.
func sprintfPreimage(cfg sim.Config, app string, sc workload.Scale, threadCounts []int) string {
	cfg.Trace = nil
	cfg.Sched = 0
	script := cfg.Fault
	cfg.Fault = nil
	s := fmt.Sprintf("cell|%+v|%s|%+v|%v", cfg, app, sc, threadCounts)
	if !script.Empty() {
		s += fmt.Sprintf("|fault|%s", script.Digest())
	}
	return s
}

// randInt draws from the values an integer field can hold, weighted toward
// the ones an encoder gets wrong: zero, negatives, and the extremes.
func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return -int64(rng.Intn(1000)) - 1
	case 2:
		return math.MinInt64
	case 3:
		return math.MaxInt64
	case 4:
		return int64(rng.Uint64())
	default:
		return int64(rng.Intn(1 << 12))
	}
}

// fillRandom sets every field of the struct v from rng. A field kind it
// does not know is a field the encoder does not know either.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(randInt(rng))
		case reflect.Uint64:
			if rng.Intn(4) == 0 {
				f.SetUint(math.MaxUint64)
			} else {
				f.SetUint(uint64(randInt(rng)))
			}
		case reflect.Bool:
			f.SetBool(rng.Intn(2) == 0)
		case reflect.Struct:
			fillRandom(t, rng, f)
		case reflect.Pointer:
			switch {
			case name == "Fault":
				f.Set(reflect.ValueOf(randScript(rng)))
			case rng.Intn(2) == 0:
				f.Set(reflect.New(f.Type().Elem())) // Trace: set or not, never in the key
			}
		default:
			t.Fatalf("%s.%s is a %s: teach fillRandom and appendCellPreimage (cache.go) to write it as %%+v does",
				v.Type(), name, f.Kind())
		}
	}
}

func randScript(rng *rand.Rand) *fault.Script {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return &fault.Script{}
	case 2:
		return &fault.Script{Seed: rng.Uint64(), MemDropRate: 0.1}
	default:
		return &fault.Script{
			Seed:   rng.Uint64(),
			Events: []fault.Event{{Cycle: uint64(rng.Intn(1000)), Kind: fault.KindKillPE, PE: rng.Intn(8)}},
		}
	}
}

func randApp(rng *rand.Rand) string {
	const alphabet = "abcxyz019-_|%{}[]: é\n"
	runes := []rune(alphabet)
	var sb strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		sb.WriteRune(runes[rng.Intn(len(runes))])
	}
	return sb.String()
}

func randCounts(rng *rand.Rand) []int {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+rng.Intn(6))
	for i := range out {
		out[i] = int(randInt(rng))
	}
	return out
}

// "Every key unchanged" as a test: over seeded random configurations,
// names, scales and thread counts, the hand-written pre-image is the
// Sprintf text and the key is its truncated SHA-256.
func TestCellKeyPreimageMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3000; i++ {
		var cfg sim.Config
		var sc workload.Scale
		fillRandom(t, rng, reflect.ValueOf(&cfg).Elem())
		fillRandom(t, rng, reflect.ValueOf(&sc).Elem())
		app, counts := randApp(rng), randCounts(rng)

		want := sprintfPreimage(cfg, app, sc, counts)
		if got := string(appendCellPreimage(nil, &cfg, app, sc, counts)); got != want {
			t.Fatalf("case %d: pre-image differs from fmt's\n got %q\nwant %q", i, got, want)
		}
		sum := sha256.Sum256([]byte(want))
		if got, want := CellKey(cfg, app, sc, counts), hex.EncodeToString(sum[:])[:32]; got != want {
			t.Fatalf("case %d: CellKey = %s, want %s", i, got, want)
		}
	}
}

// keyedFields lists, in declaration order, the fields of every struct
// appendCellPreimage writes out by hand.
var keyedFields = map[reflect.Type]string{
	reflect.TypeOf(sim.Config{}): "Arch area.Params, K int, MatchAssoc int, MatchBanks int, OverflowPenalty int, " +
		"InstMissPenalty int, Placement place.Policy, PodSize int, OutQCap int, SpecFire bool, InputWindow int, " +
		"SBContexts int, PSQs int, PSQEntries int, SBPipeLat int, L1Lat int, L1Ports int, L2Lat int, MemLat int, " +
		"NocBW int, NocQCap int, NetPEBW int, Sched sim.SchedMode, MaxCycles uint64, StallLimit uint64, " +
		"Trace *trace.Recorder, Fault *fault.Script",
	reflect.TypeOf(area.Params{}):    "Clusters int, Domains int, PEs int, Virt int, Match int, L1KB int, L2MB int",
	reflect.TypeOf(workload.Scale{}): "Iters int, Footprint int",
}

// The differential test above already fails when one of these structs
// changes shape; this one says why, and what to do about it.
func TestCellKeyFieldsGuard(t *testing.T) {
	for typ, want := range keyedFields {
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			fields = append(fields, typ.Field(i).Name+" "+typ.Field(i).Type.String())
		}
		if got := strings.Join(fields, ", "); got != want {
			t.Errorf("%s gained, lost or reordered a field:\n got %s\nwant %s\n"+
				"explore.appendCellPreimage (cache.go) writes these fields by hand, in this order, as %%+v printed them. "+
				"Update it and this list together — and any change to the pre-image of an existing configuration "+
				"orphans every journal record and cached cell written so far.", typ, got, want)
		}
	}
}

// Three keys computed at the last revision whose CellKey went through fmt.
func TestCellKeyLiterals(t *testing.T) {
	base := sim.Baseline(sim.BaselineArch())
	arch16 := sim.BaselineArch()
	arch16.Clusters = 16
	k2 := sim.Baseline(arch16)
	k2.K = 2
	for _, tc := range []struct {
		cfg    sim.Config
		app    string
		sc     workload.Scale
		counts []int
		want   string
	}{
		{base, "gzip", workload.Tiny, []int{1, 4}, "db335f33e35f7fa3a8a728f159e53955"},
		{k2, "gemm-os-4x4x4", workload.Small, []int{1, 4, 16, 64}, "2c081e6c387213bd3860674c0050dd85"},
		{base, "mcf", workload.Medium, nil, "5eaaf0ebb64fef1cac9afc95d543fc05"},
	} {
		if got := CellKey(tc.cfg, tc.app, tc.sc, tc.counts); got != tc.want {
			t.Errorf("CellKey(%v, %s, %+v, %v) = %s, want %s", tc.cfg.Arch, tc.app, tc.sc, tc.counts, got, tc.want)
		}
	}
}

var keySink string

// A clean CellKey allocates the string it returns and nothing else (10
// objects when it went through fmt).
func TestCellKeyAllocBudget(t *testing.T) {
	cfg, counts := sim.Baseline(sim.BaselineArch()), []int{1}
	per := testing.AllocsPerRun(200, func() {
		keySink = CellKey(cfg, "gzip", workload.Tiny, counts)
	})
	if per > 1 {
		t.Errorf("CellKey allocates %.0f objects, budget 1", per)
	}
}

func BenchmarkCellKey(b *testing.B) {
	cfg, counts := sim.Baseline(sim.BaselineArch()), []int{1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = CellKey(cfg, "gzip", workload.Tiny, counts)
	}
}
