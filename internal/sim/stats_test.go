package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wavescalar/internal/workload"
)

// statsV1 is Stats as it stood when the golden digests were pinned,
// frozen here with the structs nested in it: its %+v is the v1 pre-image
// appendStatsPreimage writes, whatever the live structs become.
type statsV1 struct {
	Cycles, Dynamic, Countable    uint64
	Traffic                       [5][2]uint64
	Match                         matchV1
	IStoreHits, IStoreMisses      uint64
	StoreBuf                      storeBufV1
	Cache                         cacheV1
	Noc                           nocV1
	MemAccesses, MemLatTotal      uint64
	OperandLatTotal, OperandCount uint64
	Dispatches, SpecFires         uint64
	OutQStalls, InputRejects      uint64
	Fault                         reportV1
}

type matchV1 struct {
	Inserts, Matches, Evictions, OverflowHits, KRejects, BankRejects uint64
}

type storeBufV1 struct {
	Arrivals, IssuedLoads, IssuedStores, IssuedNops, PSQAllocs uint64
	PSQQueued, PSQStalls, ContextStalls, WavesDone             uint64
}

type cacheV1 struct {
	Accesses, L1Hits, L1Misses, L1Writebacks, L2Hits, L2Misses uint64
	Invalidations, Downgrades, MSHRMerges                      uint64
}

type nocV1 struct {
	Injected, Delivered, TotalHops, TotalLat, InjectFull, Blocked uint64
	Retransmits, Rerouted, Unroutable                             uint64
	LinksDown                                                     int
}

// reportV1 is fault.Report with the String method it had then, which is
// how %+v printed it.
type reportV1 struct {
	PEsKilled, LinksDown                       int
	LinkFlips, MemDrops, MemRetries, MemDelays uint64
	SBDelays                                   uint64
	InstsMigrated, TokensMigrated              int
	Healed                                     uint64
}

func (r reportV1) String() string {
	return fmt.Sprintf(
		"pes_killed=%d links_down=%d link_flips=%d mem_drops=%d mem_retries=%d mem_delays=%d sb_delays=%d insts_migrated=%d tokens_migrated=%d healed=%d",
		r.PEsKilled, r.LinksDown, r.LinkFlips, r.MemDrops, r.MemRetries,
		r.MemDelays, r.SBDelays, r.InstsMigrated, r.TokensMigrated, r.Healed)
}

// statsOutsideV1 lists the fields of Stats, by path as statsShape names
// them, that the v1 digest leaves out. A counter added to Stats goes here.
var statsOutsideV1 = []string{"CountableAtHalt uint64", "DynamicAtHalt uint64"}

// statsGoneFromV1 lists, by path prefix, the v1 fields the live Stats no
// longer has: the fault-path counters, which were zero on every run made
// without a fault script and which the pre-image writes as that zero
// text (clearGone).
var statsGoneFromV1 = []string{"Noc.Retransmits ", "Noc.Rerouted ", "Noc.Unroutable ", "Noc.LinksDown ", "Fault."}

// clearGone zeroes the fields statsGoneFromV1 names in a frozen copy.
func clearGone(s *statsV1) {
	s.Noc.Retransmits, s.Noc.Rerouted, s.Noc.Unroutable, s.Noc.LinksDown = 0, 0, 0, 0
	s.Fault = reportV1{}
}

// fillValues sets every integer in v, in field order, from next.
func fillValues(v reflect.Value, next func() uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(next())
	case reflect.Int:
		v.SetInt(int64(next()))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValues(v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValues(v.Field(i), next)
		}
	default:
		panic(fmt.Sprintf("fillValues: teach it (and appendStatsPreimage) a %s", v.Kind()))
	}
}

// randValue draws from the values an encoder gets wrong: zero, small
// numbers, the extremes and numbers that are negative as an int.
func randValue(rng *rand.Rand) uint64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return 1 << 63
	case 3:
		return rng.Uint64()
	default:
		return uint64(rng.Intn(1 << 12))
	}
}

// liveStats is the live Stats holding the frozen copy's values, set field
// by field by name; fields of src that Stats lacks are dropped. A live
// field the copy lacks is outside v1 (TestStatsFieldsGuard holds it to
// statsOutsideV1) and gets a value with every bit pattern an encoder
// could leak: the pre-image must not change.
func liveStats(src reflect.Value) Stats {
	var s Stats
	copyFields(reflect.ValueOf(&s).Elem(), src)
	return s
}

func copyFields(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		f, name := dst.Field(i), dst.Type().Field(i).Name
		from := src.FieldByName(name)
		if !from.IsValid() {
			fillValues(f, func() uint64 { return 1<<63 | 0x5a5a })
			continue
		}
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(from.Uint())
		case reflect.Int:
			f.SetInt(from.Int())
		case reflect.Struct:
			copyFields(f, from)
		default:
			f.Set(from)
		}
	}
}

// checkPreimage holds the encoder to fmt on one value of the frozen copy,
// its gone fields zero.
func checkPreimage(t testing.TB, frozen *statsV1) {
	clearGone(frozen)
	s := liveStats(reflect.ValueOf(*frozen))
	want := fmt.Sprintf("%+v", *frozen)
	if got := string(appendStatsPreimage(nil, &s)); got != want {
		t.Fatalf("v1 pre-image differs from fmt's\n got %q\nwant %q", got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if got, want := s.Digest(), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Digest = %s, want %s", got, want)
	}
}

// "Every digest unchanged" as a test: over seeded random values of the
// frozen copy, the hand-written pre-image of the same values in the live
// struct is the text fmt prints for the frozen one.
func TestStatsPreimageMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 3000; i++ {
		var frozen statsV1
		fillValues(reflect.ValueOf(&frozen).Elem(), func() uint64 { return randValue(rng) })
		checkPreimage(t, &frozen)
	}
}

// FuzzStatsPreimage is the same check on values read from the input: a
// byte below 0x80 is a small value, any other byte is followed by the
// value's eight bytes.
func FuzzStatsPreimage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0x80, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() uint64 {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			if b < 0x80 {
				return uint64(b)
			}
			var w [8]byte
			in = in[copy(w[:], in):]
			return binary.LittleEndian.Uint64(w[:])
		}
		var frozen statsV1
		fillValues(reflect.ValueOf(&frozen).Elem(), next)
		checkPreimage(t, &frozen)
	})
}

// A counter added to Stats leaves every v1 digest where it was, which
// hashing %+v of the whole struct did not: here the frozen copy grows a
// field, and only the %+v text moves.
func TestStatsDigestIgnoresNewCounter(t *testing.T) {
	v1 := reflect.TypeOf(statsV1{})
	fields := make([]reflect.StructField, 0, v1.NumField()+1)
	for i := 0; i < v1.NumField(); i++ {
		fields = append(fields, v1.Field(i))
	}
	fields = append(fields, reflect.StructField{Name: "CountableAtHalt", Type: reflect.TypeOf(uint64(0))})
	grown := reflect.New(reflect.StructOf(fields)).Elem()

	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 100; i++ {
		var frozen statsV1
		fillValues(reflect.ValueOf(&frozen).Elem(), func() uint64 { return randValue(rng) })
		for j := 0; j < v1.NumField(); j++ {
			grown.Field(j).Set(reflect.ValueOf(frozen).Field(j))
		}
		grown.Field(v1.NumField()).SetUint(randValue(rng) | 1)

		want := liveStats(reflect.ValueOf(frozen))
		got := liveStats(grown)
		if got.Digest() != want.Digest() {
			t.Fatalf("a new counter moved the v1 digest: %s vs %s", got.Digest(), want.Digest())
		}
		if fmt.Sprintf("%+v", grown.Interface()) == fmt.Sprintf("%+v", frozen) {
			t.Fatal("the grown copy prints as the frozen one: the test no longer grows anything")
		}
	}
}

// statsShape names every leaf field of t by path, in declaration order,
// with its type.
func statsShape(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, statsShape(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name+" "+f.Type.String())
	}
	return out
}

// The differential tests above hold the encoder to the frozen copy; this
// one fails when the live struct gains, loses or reorders a field, and
// says what to decide.
func TestStatsFieldsGuard(t *testing.T) {
	live := statsShape(reflect.TypeOf(Stats{}), "")
	var inV1 []string
	for _, f := range live {
		if !slices.Contains(statsOutsideV1, f) {
			inV1 = append(inV1, f)
		}
	}
	var want []string
	for _, f := range statsShape(reflect.TypeOf(statsV1{}), "") {
		if !slices.ContainsFunc(statsGoneFromV1, func(p string) bool { return strings.HasPrefix(f, p) }) {
			want = append(want, f)
		}
	}
	if got := strings.Join(inV1, ", "); got != strings.Join(want, ", ") {
		t.Errorf("sim.Stats, or a struct nested in it, gained, lost or reordered a field:\n got %s\nwant %s\n"+
			"appendStatsPreimage (stats.go) writes statsV1's fields by hand, as %%+v printed them when the golden "+
			"digests were pinned. Decide: a new counter stays outside v1 by default — list its path in "+
			"statsOutsideV1 and leave the encoder and statsV1 alone, and no digest moves. Putting it into the "+
			"digest is a v2, a deliberate re-pin of every golden digest (ROADMAP item 3). A v1 field that was "+
			"removed, renamed, retyped or moved must still be written as statsV1 prints it: change where the "+
			"encoder reads it from, never the text, and never edit statsV1.", got, strings.Join(want, ", "))
	}
	for _, f := range statsOutsideV1 {
		if !slices.Contains(live, f) {
			t.Errorf("statsOutsideV1 names %q, which sim.Stats does not have", f)
		}
	}
}

// TestCountsAtHalt checks the halt counters on five kernels at tiny scale,
// one thread, on the Table 1 machine: gzip and twolf execute nothing after
// their last thread halts, so the counters equal Countable and Dynamic;
// fft and radix keep firing in the post-halt drain (ROADMAP item 3), a
// quarter and a half of their countable work, and mcf fires one countable
// and five dynamic instructions there, so all three are strictly less.
func TestCountsAtHalt(t *testing.T) {
	for _, tc := range []struct {
		app      string
		postHalt bool
	}{{"gzip", false}, {"twolf", false}, {"mcf", true}, {"fft", true}, {"radix", true}} {
		w, err := workload.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		inst := w.Build(workload.Tiny)
		p, err := New(Baseline(BaselineArch()), inst.Prog, inst.Params(1), Memory(inst.Mem))
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.app, err)
		}
		equal := st.CountableAtHalt == st.Countable && st.DynamicAtHalt == st.Dynamic
		less := st.CountableAtHalt < st.Countable && st.DynamicAtHalt < st.Dynamic
		if (!tc.postHalt && !equal) || (tc.postHalt && !less) || st.CountableAtHalt == 0 {
			t.Errorf("%s: countable %d at halt of %d, dynamic %d at halt of %d; want them %s",
				tc.app, st.CountableAtHalt, st.Countable, st.DynamicAtHalt, st.Dynamic,
				map[bool]string{false: "equal", true: "strictly less"}[tc.postHalt])
		}
	}
}
