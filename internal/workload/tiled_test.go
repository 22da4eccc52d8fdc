package workload

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/ref"
)

// TestParseTiled: every valid parameter combination resolves (registered
// or synthesized) to a canonical name in the Tiled suite: every dataflow
// order crossed with a spread of tile shapes, and two uneven tiles.
func TestParseTiled(t *testing.T) {
	for _, name := range []string{
		"gemm-os-2x2x2", "gemm-os-4x4x4", "gemm-os-8x8x8",
		"gemm-as-2x2x2", "gemm-as-4x4x4", "gemm-as-8x8x8",
		"gemm-bs-2x2x2", "gemm-bs-4x4x4", "gemm-bs-8x8x8",
		"conv-ws-2x2x2", "conv-ws-4x4x2",
		"conv-os-2x2x2", "conv-os-4x4x2",
		"conv-is-2x2x2", "conv-is-4x4x2",
		"gemm-bs-8x2x1", "conv-is-8x8x1",
	} {
		w, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if w.Name != name || w.Suite != Tiled {
			t.Errorf("ByName(%q) = %q in %v", name, w.Name, w.Suite)
		}
		if w.Build == nil {
			t.Errorf("%q has no builder", name)
		}
	}
}

// TestParseTiledRejects: malformed tiled names fail with descriptive
// errors rather than resolving to something surprising.
func TestParseTiledRejects(t *testing.T) {
	bad := []string{
		"gemm-os-3x4x4",    // non-power-of-two tile
		"gemm-os-4x4",      // missing dimension
		"gemm-os-4x4x128",  // tile beyond the bound
		"gemm-ws-4x4x4",    // conv order on gemm
		"conv-as-4x4x2",    // gemm order on conv
		"conv-os-4x4x8",    // channel tile beyond the 4 channels
		"gemm-os-axbxc",    // non-numeric
		"gemm-os",          // no tile shape
		"conv",             // bare family
		"matmul-os-4x4x4",  // unknown family, tiled-looking
		"gemm-os-4x4x4x4",  // too many dimensions
		"gemm-os--4x-4x-4", // negative
	}
	for _, name := range bad {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) should fail", name)
		}
	}

	// A plain unknown name yields the typed not-found error naming the
	// valid suites.
	_, err := ByName("no-such-kernel")
	var nf *NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("want *NotFoundError, got %T: %v", err, err)
	}
	for _, s := range Suites() {
		if !strings.Contains(err.Error(), s.String()) {
			t.Errorf("not-found error should name suite %v: %s", s, err)
		}
	}
}

// TestTiledBuildDeterminism: synthesized (non-registered) variants build
// byte-identical programs and memory images across builds, like the
// registered defaults covered by TestBuildDeterminism.
func TestTiledBuildDeterminism(t *testing.T) {
	for _, name := range []string{"gemm-as-8x8x8", "conv-os-2x2x2"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := w.Build(Small), w.Build(Small)
		if !reflect.DeepEqual(a.Prog, b.Prog) {
			t.Errorf("%s: programs differ between builds", name)
		}
		if !reflect.DeepEqual(a.Mem, b.Mem) {
			t.Errorf("%s: memory images differ between builds", name)
		}
	}
}

// TestTiledOrderChangesSchedule: the three dataflow orders of one GEMM
// tile shape perform the same MACs in a different order — programs must
// differ while dynamic work stays identical. The programs are compared
// without their names, which differ by the order letter alone.
func TestTiledOrderChangesSchedule(t *testing.T) {
	var progs []isa.Program
	var counts []uint64
	for _, name := range []string{"gemm-os-4x4x4", "gemm-as-4x4x4", "gemm-bs-4x4x4"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst := w.Build(Tiny)
		p := *inst.Prog
		p.Name = ""
		progs = append(progs, p)
		res, err := ref.New(inst.Prog, toRefMem(inst.Mem)).Run(0, inst.Params(1)[0])
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Countable)
	}
	if reflect.DeepEqual(progs[0], progs[1]) || reflect.DeepEqual(progs[0], progs[2]) || reflect.DeepEqual(progs[1], progs[2]) {
		t.Error("dataflow orders should emit distinct programs")
	}
	if counts[0] != counts[1] || counts[0] != counts[2] {
		t.Errorf("dataflow orders should do identical dynamic work: %v", counts)
	}
}

// gemmMirror recomputes the GEMM kernel's output in plain Go with the
// exact slot order the dataflow graph walks.
func gemmMirror(p GEMMParams, sc Scale) []float64 {
	d := gemmDims(sc)
	logD := log2(d)
	tm, tn, tk := min(p.Tm, d), min(p.Tn, d), min(p.Tk, d)
	logTm, logTn, logTk := log2(tm), log2(tn), log2(tk)
	const (
		fMi = iota
		fNi
		fKi
		fMo
		fNo
		fKo
	)
	logs := [6]int{fMi: logTm, fNi: logTn, fKi: logTk,
		fMo: logD - logTm, fNo: logD - logTn, fKo: logD - logTk}
	var layout [6]int
	switch p.Order {
	case "os":
		layout = [6]int{fKi, fNi, fMi, fKo, fNo, fMo}
	case "as":
		layout = [6]int{fNi, fKi, fMi, fNo, fKo, fMo}
	case "bs":
		layout = [6]int{fMi, fKi, fNi, fMo, fKo, fNo}
	}

	a := make([]float64, d*d)
	bm := make([]float64, d*d)
	for i := range a {
		a[i] = float64((i*31)%97) / 53
		bm[i] = float64((i*17)%89) / 47
	}
	c := make([]float64, d*d)
	n := sc.Iters * 16
	slots := int(iters(n)) * unroll
	for t := 0; t < slots; t++ {
		flat := t & (d*d*d - 1)
		var field [6]int
		shift := 0
		for _, fld := range layout {
			field[fld] = (flat >> shift) & (1<<logs[fld] - 1)
			shift += logs[fld]
		}
		row := field[fMo]<<logTm + field[fMi]
		col := field[fNo]<<logTn + field[fNi]
		dep := field[fKo]<<logTk + field[fKi]
		c[row*d+col] += a[row*d+dep] * bm[dep*d+col]
	}
	return c
}

// TestGEMMFunctional: the dataflow kernel's accumulated C matrix matches
// a bit-exact plain-Go replay of the same slot schedule, for every
// dataflow order.
func TestGEMMFunctional(t *testing.T) {
	for _, order := range gemmOrders {
		p := GEMMParams{Order: order, Tm: 4, Tn: 4, Tk: 4}
		w, err := p.Workload()
		if err != nil {
			t.Fatal(err)
		}
		inst := w.Build(Tiny)
		mem := toRefMem(inst.Mem)
		if _, err := ref.New(inst.Prog, mem).Run(0, inst.Params(1)[0]); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		want := gemmMirror(p, Tiny)
		base := inst.Params(1)[0]["base"]
		d := gemmDims(Tiny)
		for i := 0; i < d*d; i++ {
			got := math.Float64frombits(mem[base+uint64(i)*8])
			if got != want[i] {
				t.Fatalf("%s: C[%d] = %v, want %v (bit-exact)", w.Name, i, got, want[i])
			}
		}
	}
}

// convMirror recomputes the conv kernel's output image in plain Go with
// the exact slot order of the given dataflow.
func convMirror(p ConvParams, sc Scale) []float64 {
	x := convDims(sc)
	logX := log2(x)
	logC := log2(convChannels)
	tx, ty, tc := min(p.Tx, x), min(p.Ty, x), min(p.Tc, convChannels)
	logTx, logTy, logTc := log2(tx), log2(ty), log2(tc)
	taps := convFilter * convFilter
	const (
		fYi = iota
		fXi
		fYo
		fXo
		fCii
		fCio
		fRS
		fCo
	)
	sizes := [8]int{fYi: ty, fXi: tx, fYo: x / ty, fXo: x / tx,
		fCii: tc, fCio: convChannels / tc, fRS: taps, fCo: convChannels}
	var layout [8]int
	switch p.Order {
	case "ws":
		layout = [8]int{fYi, fXi, fYo, fXo, fCii, fRS, fCio, fCo}
	case "os":
		layout = [8]int{fRS, fCii, fCio, fYi, fXi, fYo, fXo, fCo}
	case "is":
		layout = [8]int{fCo, fRS, fYi, fXi, fYo, fXo, fCii, fCio}
	}

	in := make([]float64, convChannels*x*x)
	for i := range in {
		in[i] = float64((i*13)%101) / 67
	}
	wt := make([]float64, convChannels*convChannels*taps)
	for i := range wt {
		wt[i] = float64((i*7)%19)/9 - 1
	}
	out := make([]float64, convChannels*x*x)
	space := convChannels * convChannels * taps * x * x
	n := sc.Iters * 16
	slots := int(iters(n)) * unroll
	for t := 0; t < slots; t++ {
		cur := t % space
		var field [8]int
		for _, fld := range layout {
			field[fld] = cur % sizes[fld]
			cur /= sizes[fld]
		}
		r, s := field[fRS]/convFilter, field[fRS]%convFilter
		px := field[fXo]<<logTx + field[fXi]
		py := field[fYo]<<logTy + field[fYi]
		ci := field[fCio]<<logTc + field[fCii]
		co := field[fCo]
		ix := (px + r) & (x - 1)
		iy := (py + s) & (x - 1)
		wIdx := (co<<logC+ci)*taps + field[fRS]
		out[(co<<logX+px)<<logX+py] += in[(ci<<logX+ix)<<logX+iy] * wt[wIdx]
	}
	return out
}

// TestConvFunctional: same bit-exact replay check for the conv kernels.
func TestConvFunctional(t *testing.T) {
	for _, order := range convOrders {
		p := ConvParams{Order: order, Tx: 4, Ty: 4, Tc: 2}
		w, err := p.Workload()
		if err != nil {
			t.Fatal(err)
		}
		inst := w.Build(Tiny)
		mem := toRefMem(inst.Mem)
		if _, err := ref.New(inst.Prog, mem).Run(0, inst.Params(1)[0]); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		want := convMirror(p, Tiny)
		base := inst.Params(1)[0]["base"]
		x := convDims(Tiny)
		for i := 0; i < convChannels*x*x; i++ {
			got := math.Float64frombits(mem[base+uint64(i)*8])
			if got != want[i] {
				t.Fatalf("%s: O[%d] = %v, want %v (bit-exact)", w.Name, i, got, want[i])
			}
		}
	}
}

// TestTiledMemoryIntensity: the tiled kernels must actually stream memory
// (three loads and a store per MAC), or they would not stress the cache
// and matching-table parameters the sweep varies.
func TestTiledMemoryIntensity(t *testing.T) {
	for _, w := range BySuite(Tiled) {
		inst := w.Build(Tiny)
		res, err := ref.New(inst.Prog, toRefMem(inst.Mem)).Run(0, inst.Params(1)[0])
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		memOps := res.ByOpcode[isa.OpLoad] + res.ByOpcode[isa.OpStore]
		if frac := float64(memOps) / float64(res.Countable); frac < 0.05 {
			t.Errorf("%s: memory ops are only %.1f%% of countable work", w.Name, frac*100)
		}
	}
}
