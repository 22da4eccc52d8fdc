package workload

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"wavescalar/internal/graph"
)

// The Tiled suite: blocked matrix multiply and 2D convolution with
// configurable tile shape and dataflow order — the modern workloads that
// stress tiled dataflow hardest (SCALE-Sim's parameter space). Unlike the
// paper's fifteen fixed kernels these are *families*: any valid parameter
// combination names a workload (see ParseTiled), and a handful of default
// variants are registered so every tool that enumerates the registry picks
// the suite up automatically.
//
// Each kernel walks the full MAC space of its operator in the loop order
// the dataflow dictates. The flat induction index is decoded into loop
// fields with the innermost field in the lowest bits, so changing the
// dataflow order permutes the bit layout — and with it the reuse distance
// of each operand stream — without changing the set of MACs performed:
//
//	GEMM  C[i,j] += A[i,k]·B[k,j]   fields (mo no ko | mi ni ki), tiles Tm×Tn×Tk
//	  os  output-stationary: k innermost, C tile stays resident
//	  as  A-stationary:      n innermost, the A element is reused
//	  bs  B-stationary:      m innermost, the B element is reused
//
//	Conv  O[co,x,y] += W[co,ci,r,s]·I[ci,x+r,y+s]   tiles Tx×Ty×Tc
//	  ws  weight-stationary: x,y innermost, the filter tap stays resident
//	  os  output-stationary: r,s and ci innermost, the output point stays
//	  is  input-stationary:  co innermost, the input element is reused
//
// A and B (GEMM) and the input/filter images (conv) are shared read-only
// across threads; each thread accumulates into its private output region,
// so the suite scales to the same 64 threads as Splash2.

func init() {
	for _, o := range gemmOrders {
		register(mustTiled(GEMMParams{Order: o, Tm: 4, Tn: 4, Tk: 4}.Workload()))
	}
	for _, o := range convOrders {
		register(mustTiled(ConvParams{Order: o, Tx: 4, Ty: 4, Tc: 2}.Workload()))
	}
}

var (
	gemmOrders = []string{"os", "as", "bs"}
	convOrders = []string{"ws", "os", "is"}
)

func mustTiled(w Workload, err error) Workload {
	if err != nil {
		panic(err)
	}
	return w
}

// maxTile bounds any single tiling factor.
const maxTile = 64

// GEMMParams parameterizes one blocked-matmul kernel: the tile shape
// (Tm×Tn×Tk, powers of two) and the dataflow order ("os", "as" or "bs").
// The matrix dimension itself comes from the Scale footprint.
type GEMMParams struct {
	Order      string
	Tm, Tn, Tk int
}

// Validate checks the parameters.
func (p GEMMParams) Validate() error {
	if !validOrder(p.Order, gemmOrders) {
		return fmt.Errorf("workload: gemm dataflow order %q (valid: %s)", p.Order, strings.Join(gemmOrders, ", "))
	}
	for _, t := range []int{p.Tm, p.Tn, p.Tk} {
		if err := validTile(t); err != nil {
			return fmt.Errorf("workload: gemm tile %dx%dx%d: %w", p.Tm, p.Tn, p.Tk, err)
		}
	}
	return nil
}

// Name is the canonical registry name, e.g. "gemm-os-4x4x4".
func (p GEMMParams) Name() string {
	return fmt.Sprintf("gemm-%s-%dx%dx%d", p.Order, p.Tm, p.Tn, p.Tk)
}

// Workload returns the runnable workload for these parameters.
func (p GEMMParams) Workload() (Workload, error) {
	if err := p.Validate(); err != nil {
		return Workload{}, err
	}
	return newWorkload(p.Name(), Tiled, func(sc Scale) *Instance {
		return buildGEMM(p, sc)
	}), nil
}

// ConvParams parameterizes one 2D-convolution kernel: the output tile
// (Tx×Ty), the input-channel tile (Tc, out of 4 channels) and the dataflow
// order ("ws", "os" or "is"). The filter is fixed at 3×3.
type ConvParams struct {
	Order      string
	Tx, Ty, Tc int
}

// Validate checks the parameters.
func (p ConvParams) Validate() error {
	if !validOrder(p.Order, convOrders) {
		return fmt.Errorf("workload: conv dataflow order %q (valid: %s)", p.Order, strings.Join(convOrders, ", "))
	}
	for _, t := range []int{p.Tx, p.Ty, p.Tc} {
		if err := validTile(t); err != nil {
			return fmt.Errorf("workload: conv tile %dx%dx%d: %w", p.Tx, p.Ty, p.Tc, err)
		}
	}
	if p.Tc > convChannels {
		return fmt.Errorf("workload: conv channel tile %d exceeds the %d input channels", p.Tc, convChannels)
	}
	return nil
}

// Name is the canonical registry name, e.g. "conv-ws-4x4x2".
func (p ConvParams) Name() string {
	return fmt.Sprintf("conv-%s-%dx%dx%d", p.Order, p.Tx, p.Ty, p.Tc)
}

// Workload returns the runnable workload for these parameters.
func (p ConvParams) Workload() (Workload, error) {
	if err := p.Validate(); err != nil {
		return Workload{}, err
	}
	return newWorkload(p.Name(), Tiled, func(sc Scale) *Instance {
		return buildConv(p, sc)
	}), nil
}

func validOrder(o string, valid []string) bool {
	for _, v := range valid {
		if o == v {
			return true
		}
	}
	return false
}

func validTile(t int) error {
	if t < 1 || t > maxTile || t&(t-1) != 0 {
		return fmt.Errorf("tile factor %d not a power of two in [1,%d]", t, maxTile)
	}
	return nil
}

// ParseTiled resolves a tiled-kernel name ("gemm-<order>-TmxTnxTk" or
// "conv-<order>-TxxTyxTc") to a workload, synthesizing it when the exact
// variant is not registered. Any valid parameter combination is a
// workload; the registry only pins the default variants.
func ParseTiled(name string) (Workload, error) {
	parts := strings.SplitN(name, "-", 3)
	if len(parts) != 3 {
		return Workload{}, fmt.Errorf("workload: %q is not a tiled kernel name (want gemm-<order>-TmxTnxTk or conv-<order>-TxxTyxTc)", name)
	}
	dims := strings.Split(parts[2], "x")
	if len(dims) != 3 {
		return Workload{}, fmt.Errorf("workload: tiled kernel %q: tile shape %q is not AxBxC", name, parts[2])
	}
	var t [3]int
	for i, d := range dims {
		v, err := strconv.Atoi(d)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: tiled kernel %q: bad tile factor %q", name, d)
		}
		t[i] = v
	}
	switch parts[0] {
	case "gemm":
		return GEMMParams{Order: parts[1], Tm: t[0], Tn: t[1], Tk: t[2]}.Workload()
	case "conv":
		return ConvParams{Order: parts[1], Tx: t[0], Ty: t[1], Tc: t[2]}.Workload()
	}
	return Workload{}, fmt.Errorf("workload: tiled kernel %q: unknown family %q (want gemm or conv)", name, parts[0])
}

// TiledInfo decomposes a tiled-kernel name into its family ("gemm" or
// "conv"), dataflow order, and tile factors. ok is false for names
// outside the tiled namespace (including invalid tiled names).
func TiledInfo(name string) (family, order string, tile [3]int, ok bool) {
	if _, err := ParseTiled(name); err != nil {
		return "", "", [3]int{}, false
	}
	parts := strings.SplitN(name, "-", 3)
	for i, d := range strings.Split(parts[2], "x") {
		tile[i], _ = strconv.Atoi(d)
	}
	return parts[0], parts[1], tile, true
}

// log2 of a power of two.
func log2(v int) int { return bits.Len(uint(v)) - 1 }

// gemmDims derives the (square) matrix dimension from the footprint: A, B
// and one C copy must fit.
func gemmDims(sc Scale) int {
	d := 1
	for 3*d*d*8 <= sc.Footprint {
		d *= 2
	}
	d /= 2
	if d < 8 {
		d = 8
	}
	return d
}

// buildGEMM emits the blocked C[i,j] += A[i,k]·B[k,j] kernel. The loop
// walks a flat MAC index whose bit layout is (outer tile fields | inner
// intra-tile fields) with the dataflow's innermost field in the lowest
// bits; the index wraps the full M×N×K space so Scale controls dynamic
// work independently of the tile space.
func buildGEMM(p GEMMParams, sc Scale) *Instance {
	d := gemmDims(sc)
	logD := log2(d)
	// Clamp tiles to the matrix dimension (tiny footprints).
	tm, tn, tk := min(p.Tm, d), min(p.Tn, d), min(p.Tk, d)
	logTm, logTn, logTk := log2(tm), log2(tn), log2(tk)

	// Field indices into the decoded slot.
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
	// Innermost-to-outermost field layout per dataflow order.
	var layout [6]int
	switch p.Order {
	case "os":
		layout = [6]int{fKi, fNi, fMi, fKo, fNo, fMo}
	case "as":
		layout = [6]int{fNi, fKi, fMi, fNo, fKo, fMo}
	case "bs":
		layout = [6]int{fMi, fKi, fNi, fMo, fKo, fNo}
	}

	n := sc.Iters * 16
	space := uint64(d*d*d - 1) // wrap mask; d^3 is a power of two

	b := graph.New(p.Name())
	base := b.Param("base")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	l := b.Loop(i0, b.Nop(base), b.Nop(pn))
	i, bs, nn := l.Var(0), l.Var(1), l.Var(2)

	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(i, uint64(unroll)), uint64(u))
		flat := b.AndI(idx, space)
		var field [6]graph.Value
		shift := 0
		for _, fld := range layout {
			field[fld] = b.AndI(b.ShrI(flat, uint64(shift)), uint64(1<<logs[fld]-1))
			shift += logs[fld]
		}
		row := b.Add(b.ShlI(field[fMo], uint64(logTm)), field[fMi]) // i
		col := b.Add(b.ShlI(field[fNo], uint64(logTn)), field[fNi]) // j
		dep := b.Add(b.ShlI(field[fKo], uint64(logTk)), field[fKi]) // k
		aAddr := b.AddI(b.ShlI(b.Add(b.ShlI(row, uint64(logD)), dep), 3), dataBase)
		bAddr := b.AddI(b.ShlI(b.Add(b.ShlI(dep, uint64(logD)), col), 3), tableBase)
		cAddr := b.Add(bs, b.ShlI(b.Add(b.ShlI(row, uint64(logD)), col), 3))
		av := b.Load(aAddr)
		bv := b.Load(bAddr)
		cv := b.Load(cAddr)
		b.Store(cAddr, b.FAdd(cv, b.FMul(av, bv)))
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, bs, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	fill(mem, dataBase, d*d, func(i int) uint64 { return f(float64((i*31)%97) / 53) })
	fill(mem, tableBase, d*d, func(i int) uint64 { return f(float64((i*17)%89) / 47) })
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: threadParams(map[string]uint64{"n": iters(n)}),
	}
}

// Conv geometry: a fixed channel count and 3×3 filter; the image
// dimension comes from the footprint.
const (
	convChannels = 4
	convFilter   = 3
)

func convDims(sc Scale) int {
	x := 1
	for convChannels*x*x*8 <= sc.Footprint {
		x *= 2
	}
	x /= 2
	if x < 8 {
		x = 8
	}
	return x
}

// buildConv emits the O[co,x,y] += W[co,ci,r,s]·I[ci,x+r,y+s] kernel over
// a square X×X image with wraparound borders. The 3×3 filter taps form one
// radix-9 field; all other fields are powers of two, so the flat index is
// decoded innermost-first by mixed shift/remainder steps.
func buildConv(p ConvParams, sc Scale) *Instance {
	x := convDims(sc)
	logX := log2(x)
	logC := log2(convChannels)
	tx, ty, tc := min(p.Tx, x), min(p.Ty, x), min(p.Tc, convChannels)
	logTx, logTy, logTc := log2(tx), log2(ty), log2(tc)
	taps := convFilter * convFilter

	// Fields of the flat MAC index. Sizes are powers of two except the
	// combined filter field (9 taps).
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
	case "ws": // filter tap resident: the image sweeps under it
		layout = [8]int{fYi, fXi, fYo, fXo, fCii, fRS, fCio, fCo}
	case "os": // output point resident: taps and channels reduce in place
		layout = [8]int{fRS, fCii, fCio, fYi, fXi, fYo, fXo, fCo}
	case "is": // input element resident: reused across output channels
		layout = [8]int{fCo, fRS, fYi, fXi, fYo, fXo, fCii, fCio}
	}

	n := sc.Iters * 16
	space := uint64(convChannels * convChannels * taps * x * x)

	b := graph.New(p.Name())
	base := b.Param("base")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	l := b.Loop(i0, b.Nop(base), b.Nop(pn))
	i, bs, nn := l.Var(0), l.Var(1), l.Var(2)

	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(i, uint64(unroll)), uint64(u))
		// The MAC space is not a power of two (9 filter taps): wrap by
		// remainder, then peel fields innermost-first.
		cur := b.Rem(idx, b.Const(i, space))
		var field [8]graph.Value
		for _, fld := range layout {
			s := sizes[fld]
			if s&(s-1) == 0 {
				field[fld] = b.AndI(cur, uint64(s-1))
				cur = b.ShrI(cur, uint64(log2(s)))
			} else {
				sv := b.Const(i, uint64(s))
				field[fld] = b.Rem(cur, sv)
				cur = b.Div(cur, sv)
			}
		}
		three := b.Const(i, convFilter)
		r := b.Div(field[fRS], three)
		s := b.Rem(field[fRS], three)
		px := b.Add(b.ShlI(field[fXo], uint64(logTx)), field[fXi])
		py := b.Add(b.ShlI(field[fYo], uint64(logTy)), field[fYi])
		ci := b.Add(b.ShlI(field[fCio], uint64(logTc)), field[fCii])
		co := field[fCo]
		ix := b.AndI(b.Add(px, r), uint64(x-1))
		iy := b.AndI(b.Add(py, s), uint64(x-1))
		inAddr := b.AddI(b.ShlI(b.Add(b.ShlI(b.Add(b.ShlI(ci, uint64(logX)), ix), uint64(logX)), iy), 3), dataBase)
		wIdx := b.Add(b.MulI(b.Add(b.ShlI(co, uint64(logC)), ci), uint64(taps)), field[fRS])
		wAddr := b.AddI(b.ShlI(wIdx, 3), tableBase)
		outAddr := b.Add(bs, b.ShlI(b.Add(b.ShlI(b.Add(b.ShlI(co, uint64(logX)), px), uint64(logX)), py), 3))
		iv := b.Load(inAddr)
		wv := b.Load(wAddr)
		ov := b.Load(outAddr)
		b.Store(outAddr, b.FAdd(ov, b.FMul(iv, wv)))
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, bs, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	fill(mem, dataBase, convChannels*x*x, func(i int) uint64 { return f(float64((i*13)%101) / 67) })
	fill(mem, tableBase, convChannels*convChannels*taps, func(i int) uint64 {
		return f(float64((i*7)%19)/9 - 1)
	})
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: threadParams(map[string]uint64{"n": iters(n)}),
	}
}
