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
	"wavescalar/internal/sim"
	"wavescalar/internal/trace"
	"wavescalar/internal/workload"
)

// configV1 is sim.Config as it stood when CellKey's pre-image was last
// produced by fmt, frozen here so that the reference below prints the
// same text whatever the live struct becomes. Sched (a scheduler choice,
// since removed) and Trace were written as their zero values whatever
// the configuration held, so they stay as fields that are always 0 and
// nil; so does Fault, a fault script since removed, whose digest followed
// the struct when one was set.
type configV1 struct {
	Arch                                                        paramsV1
	K, MatchAssoc, MatchBanks, OverflowPenalty, InstMissPenalty int
	Placement                                                   int
	PodSize, OutQCap                                            int
	SpecFire                                                    bool
	InputWindow, SBContexts, PSQs, PSQEntries, SBPipeLat        int
	L1Lat, L1Ports, L2Lat, MemLat, NocBW, NocQCap, NetPEBW      int
	Sched                                                       int
	MaxCycles, StallLimit                                       uint64
	Trace, Fault                                                *struct{}
}

// paramsV1 is area.Params with the String method it had then.
type paramsV1 struct{ Clusters, Domains, PEs, Virt, Match, L1KB, L2MB int }

func (p paramsV1) String() string {
	return fmt.Sprintf("C%d D%d P%d V%d M%d L1:%dKB L2:%dMB",
		p.Clusters, p.Domains, p.PEs, p.Virt, p.Match, p.L1KB, p.L2MB)
}

// scaleV1 is workload.Scale as it stood then.
type scaleV1 struct{ Iters, Footprint int }

// sprintfPreimage is CellKey's pre-image as every revision before the
// hand-written encoder produced it, over the frozen copies. It is the
// reference appendCellPreimage is held to, byte for byte.
func sprintfPreimage(cfg configV1, app string, sc scaleV1, threadCounts []int) string {
	return fmt.Sprintf("cell|%+v|%s|%+v|%v", cfg, app, sc, threadCounts)
}

// copyByName sets every field of the live struct dst from the field of
// the same name in the frozen copy src, recursing into nested structs.
// Pointer fields, and live fields the copy lacks, are left alone:
// TestCellKeyFieldsGuard decides about the latter.
func copyByName(t *testing.T, dst, src reflect.Value) {
	t.Helper()
	for i := 0; i < dst.NumField(); i++ {
		f, name := dst.Field(i), dst.Type().Field(i).Name
		from := src.FieldByName(name)
		if f.Kind() == reflect.Pointer || !from.IsValid() {
			continue
		}
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(from.Int())
		case reflect.Uint64:
			f.SetUint(from.Uint())
		case reflect.Bool:
			f.SetBool(from.Bool())
		case reflect.Struct:
			copyByName(t, f, from)
		default:
			t.Fatalf("%s.%s is a %s: teach copyByName and appendCellPreimage (cache.go) to write it as %%+v does",
				dst.Type(), name, f.Kind())
		}
	}
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

// fillRandom sets every field of the struct v from rng, leaving pointers
// nil. A field kind it does not know is a field the encoder does not
// know either.
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
		default:
			t.Fatalf("%s.%s is a %s: teach fillRandom and appendCellPreimage (cache.go) to write it as %%+v does",
				v.Type(), name, f.Kind())
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

// "Every key unchanged" as a test: over seeded random values of the
// frozen configuration and scale, names and thread counts, the
// hand-written pre-image of the same values in the live structs is the
// Sprintf text of the frozen ones, and the key is its truncated SHA-256.
// A set Trace never reaches the key.
func TestCellKeyPreimageMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3000; i++ {
		var frozen configV1
		var fsc scaleV1
		fillRandom(t, rng, reflect.ValueOf(&frozen).Elem())
		fillRandom(t, rng, reflect.ValueOf(&fsc).Elem())
		frozen.Sched = 0
		var cfg sim.Config
		var sc workload.Scale
		copyByName(t, reflect.ValueOf(&cfg).Elem(), reflect.ValueOf(frozen))
		copyByName(t, reflect.ValueOf(&sc).Elem(), reflect.ValueOf(fsc))
		if rng.Intn(2) == 0 {
			cfg.Trace = new(trace.Recorder)
		}
		app, counts := randApp(rng), randCounts(rng)

		want := sprintfPreimage(frozen, app, fsc, counts)
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
		"NocBW int, NocQCap int, NetPEBW int, MaxCycles uint64, StallLimit uint64, " +
		"Trace *trace.Recorder",
	reflect.TypeOf(area.Params{}):    "Clusters int, Domains int, PEs int, Virt int, Match int, L1KB int, L2MB int",
	reflect.TypeOf(workload.Scale{}): "Iters int, Footprint int",
}

// The differential test above holds the encoder to the frozen copy; this
// one fails when a live struct gains, loses or reorders a field, and says
// what to decide.
func TestCellKeyFieldsGuard(t *testing.T) {
	for typ, want := range keyedFields {
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			fields = append(fields, typ.Field(i).Name+" "+typ.Field(i).Type.String())
		}
		if got := strings.Join(fields, ", "); got != want {
			t.Errorf("%s gained, lost or reordered a field:\n got %s\nwant %s\n"+
				"explore.appendCellPreimage (cache.go) writes these fields by hand, as %%+v of configV1 printed them. "+
				"Decide whether the change can move a simulation's result. If it can, the key must cover it: append it "+
				"to the pre-image only when it differs from its old value, and extend sprintfPreimage "+
				"to match. If it cannot (like Trace), leave the pre-image alone. Then update this list. Never change "+
				"the text an existing configuration is written as, and never edit configV1: that orphans every "+
				"journal record and cached cell written so far.", typ, got, want)
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
