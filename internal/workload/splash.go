package workload

import (
	"math"
	"math/bits"

	"wavescalar/internal/graph"
)

// The Splash2 stand-ins. Each thread works on its own partition of the
// data (the paper's placement isolates threads in separate clusters), with
// some shared read-only structures to exercise coherence:
//
//	fft      — radix-2 butterfly stages over per-thread arrays, shared twiddles
//	lu       — per-thread panel factorization (FP divides, triangular loop)
//	ocean    — 5-point Jacobi relaxation over per-thread subgrids
//	radix    — per-thread histogram then scatter (dependent memory traffic)
//	raytrace — ray-sphere intersection per pixel, shared scene
//	water    — pairwise force accumulation with read-modify-write updates

func init() {
	register(newWorkload("fft", Splash, buildFFT))
	register(newWorkload("lu", Splash, buildLU))
	register(newWorkload("ocean", Splash, buildOcean))
	register(newWorkload("radix", Splash, buildRadix))
	register(newWorkload("raytrace", Splash, buildRaytrace))
	register(newWorkload("water", Splash, buildWater))
}

// MaxSplashThreads is the largest thread count the Splash kernels support
// (the paper sweeps up to 64).
const MaxSplashThreads = 64

// unroll is the loop-body unrolling factor applied to the data-parallel
// kernels: each dynamic iteration processes this many consecutive indices.
// Unrolling widens the per-iteration dataflow graph (ILP, as a compiler
// would expose) and grows static program sizes toward the regime where the
// paper's instruction-capacity effects appear.
const unroll = 4

// iters returns the loop trip count for a total of n indices.
func iters(n int) uint64 { return uint64((n + unroll - 1) / unroll) }

// threadRegion returns thread t's private memory base.
func threadRegion(t int) uint64 { return 0x100_0000 + uint64(t)*0x10_0000 }

// threadParams builds the standard per-thread parameter function.
func threadParams(extra map[string]uint64) func(int, int) map[string]uint64 {
	return func(t, total int) map[string]uint64 {
		p := map[string]uint64{"tid": uint64(t), "base": threadRegion(t)}
		for k, v := range extra {
			p[k] = v
		}
		return p
	}
}

func buildFFT(sc Scale) *Instance {
	m := sc.Footprint / 16 // complex points per thread
	if m < 16 {
		m = 16
	}
	logM := bits.Len(uint(m)) - 1
	half := m / 2
	logHalf := logM - 1
	stages := logM
	n := stages * half // butterflies per full transform
	reps := sc.Iters/16 + 1
	n *= reps

	b := graph.New("fft")
	pn := b.Param("n")
	base := b.Param("base")
	i0 := b.Const(pn, 0)
	l := b.Loop(i0, b.Nop(base), b.Nop(pn))
	i, bs, nn := l.Var(0), l.Var(1), l.Var(2)

	// The body is unrolled: each iteration performs `unroll` consecutive
	// butterflies, which widens the dataflow graph (more ILP, as in real
	// compiled loops) and grows the static program into the regime where
	// instruction-store capacity matters.
	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(i, uint64(unroll)), uint64(u))
		// Butterfly (s, k) from the flat index. stages*half is not a
		// power of two, so the repeat wrap uses an explicit remainder.
		flat := b.Rem(idx, b.Const(i, uint64(stages*half)))
		s := b.ShrI(flat, uint64(logHalf))
		k := b.AndI(flat, uint64(half-1))
		one := b.Const(i, 1)
		span := b.Shl(one, s) // 1<<s
		lowMask := b.Sub(span, one)
		j0 := b.Add(b.Shl(b.Shr(k, s), b.AddI(s, 1)), b.And(k, lowMask))
		j1 := b.Add(j0, span)

		reAddr0 := b.Add(bs, b.Shl(j0, b.Const(i, 3)))
		reAddr1 := b.Add(bs, b.Shl(j1, b.Const(i, 3)))
		imOff := b.Const(i, uint64(m*8))
		re0 := b.Load(reAddr0)
		re1 := b.Load(reAddr1)
		im0 := b.Load(b.Add(reAddr0, imOff))
		im1 := b.Load(b.Add(reAddr1, imOff))
		// Shared twiddle factors.
		wr := b.Load(b.AddI(b.ShlI(k, 3), tableBase))
		wi := b.Load(b.AddI(b.ShlI(k, 3), tableBase+1<<18))
		tr := b.FSub(b.FMul(re1, wr), b.FMul(im1, wi))
		ti := b.FAdd(b.FMul(re1, wi), b.FMul(im1, wr))
		b.Store(reAddr0, b.FAdd(re0, tr))
		b.Store(reAddr1, b.FSub(re0, tr))
		b.Store(b.Add(reAddr0, imOff), b.FAdd(im0, ti))
		b.Store(b.Add(reAddr1, imOff), b.FSub(im0, ti))
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, bs, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	for k := 0; k < half; k++ {
		ang := -2 * math.Pi * float64(k) / float64(m)
		mem[tableBase+uint64(k)*8] = f(math.Cos(ang))
		mem[tableBase+1<<18+uint64(k)*8] = f(math.Sin(ang))
	}
	for t := 0; t < MaxSplashThreads; t++ {
		fill(mem, threadRegion(t), m, func(i int) uint64 { return f(float64(i%32) / 31) })
		fill(mem, threadRegion(t)+uint64(m*8), m, func(i int) uint64 { return f(0) })
	}
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: threadParams(map[string]uint64{"n": iters(n)}),
	}
}

func buildLU(sc Scale) *Instance {
	bdim := 1
	for bdim*bdim*8 <= sc.Footprint {
		bdim *= 2
	}
	bdim /= 2
	if bdim < 8 {
		bdim = 8
	}
	n := (bdim - 1) * bdim / 2 // triangular update count

	b := graph.New("lu")
	base := b.Param("base")
	pn := b.Param("n")
	c0 := b.Const(pn, 0)
	k0 := b.Const(pn, 0)
	i0 := b.Const(pn, 1)
	l := b.Loop(c0, k0, i0, b.Nop(base), b.Nop(pn))
	c, k, i, bs, nn := l.Var(0), l.Var(1), l.Var(2), l.Var(3), l.Var(4)

	three := b.Const(c, 3)
	rowI := b.Shl(b.MulI(i, uint64(bdim)), three)
	rowK := b.Shl(b.MulI(k, uint64(bdim)), three)
	kOff := b.Shl(k, three)
	pivot := b.Load(b.Add(bs, b.Add(rowK, kOff)))
	elem := b.Load(b.Add(bs, b.Add(rowI, kOff)))
	factor := b.FDiv(elem, b.FAdd(pivot, b.ConstF(c, 1e-9)))
	b.Store(b.Add(bs, b.Add(rowI, kOff)), factor)
	// Update the next column element of row i.
	k1Off := b.Shl(b.AddI(k, 1), three)
	upd := b.Load(b.Add(bs, b.Add(rowI, k1Off)))
	piv1 := b.Load(b.Add(bs, b.Add(rowK, k1Off)))
	b.Store(b.Add(bs, b.Add(rowI, k1Off)), b.FSub(upd, b.FMul(factor, piv1)))

	// Triangular advance: i++ until bdim, then k++, i = k+2.
	iNext := b.AddI(i, 1)
	wrap := b.EQ(iNext, b.Const(c, uint64(bdim)))
	k1 := b.Select(wrap, b.AddI(k, 1), k)
	i2 := b.Select(wrap, b.AddI(k, 2), iNext)
	c1 := b.AddI(c, 1)
	out := l.End(b.ULT(c1, nn), c1, k1, i2, bs, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	for t := 0; t < MaxSplashThreads; t++ {
		fill(mem, threadRegion(t), bdim*bdim, func(i int) uint64 {
			return f(1 + float64((i*29)%100)/25)
		})
	}
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: threadParams(map[string]uint64{"n": uint64(n)}),
	}
}

func buildOcean(sc Scale) *Instance {
	g := 1
	for g*g*8 <= sc.Footprint {
		g *= 2
	}
	g /= 2
	if g < 8 {
		g = 8
	}
	logG := bits.Len(uint(g)) - 1
	n := g * g * (sc.Iters/128 + 1)

	b := graph.New("ocean")
	base := b.Param("base")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	l := b.Loop(i0, b.Nop(base), b.Nop(pn))
	i, bs, nn := l.Var(0), l.Var(1), l.Var(2)

	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(i, uint64(unroll)), uint64(u))
		cell := b.AndI(idx, uint64(g*g-1))
		row := b.ShrI(cell, uint64(logG))
		col := b.AndI(cell, uint64(g-1))
		three := b.Const(i, 3)
		addr := b.Add(bs, b.Shl(cell, three))
		up := b.Load(b.Add(bs, b.Shl(b.AndI(b.Sub(cell, b.Const(i, uint64(g))), uint64(g*g-1)), three)))
		down := b.Load(b.Add(bs, b.Shl(b.AndI(b.AddI(cell, uint64(g)), uint64(g*g-1)), three)))
		left := b.Load(b.Add(bs, b.Shl(b.AndI(b.SubI(cell, 1), uint64(g*g-1)), three)))
		right := b.Load(b.Add(bs, b.Shl(b.AndI(b.AddI(cell, 1), uint64(g*g-1)), three)))
		avg := b.FMul(b.FAdd(b.FAdd(up, down), b.FAdd(left, right)), b.ConstF(i, 0.25))
		// Only interior cells update.
		interior := b.And(
			b.And(b.ULT(b.Const(i, 0), row), b.ULT(row, b.Const(i, uint64(g-1)))),
			b.And(b.ULT(b.Const(i, 0), col), b.ULT(col, b.Const(i, uint64(g-1)))),
		)
		b.CondStore(interior, addr, avg)
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, bs, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	for t := 0; t < MaxSplashThreads; t++ {
		fill(mem, threadRegion(t), g*g, func(i int) uint64 {
			return f(float64((i*13)%64) / 8)
		})
	}
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: threadParams(map[string]uint64{"n": iters(n)}),
	}
}

func buildRadix(sc Scale) *Instance {
	keys := sc.Footprint / 8
	if keys < 64 {
		keys = 64
	}
	n := keys * (sc.Iters/96 + 1)

	b := graph.New("radix")
	base := b.Param("base")
	pn := b.Param("n")

	// Phase 1: histogram the low byte of each key.
	i0 := b.Const(pn, 0)
	l := b.Loop(i0, b.Nop(base), b.Nop(pn))
	i, bs, nn := l.Var(0), l.Var(1), l.Var(2)
	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(i, uint64(unroll)), uint64(u))
		three := b.Const(i, 3)
		key := b.Load(b.Add(bs, b.Shl(b.AndI(idx, uint64(keys-1)), three)))
		digit := b.AndI(key, 255)
		binOff := b.Const(i, uint64(keys*8))
		binAddr := b.Add(bs, b.Add(binOff, b.Shl(digit, three)))
		cnt := b.Load(binAddr)
		b.Store(binAddr, b.AddI(cnt, 1))
	}
	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, bs, nn)

	// Phase 2: scatter by running offsets.
	j0 := b.Const(out[0], 0)
	l2 := b.Loop(j0, out[1], b.Nop(out[0]))
	j, bs2 := l2.Var(0), l2.Var(1)
	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(j, uint64(unroll)), uint64(u))
		three2 := b.Const(j, 3)
		key2 := b.Load(b.Add(bs2, b.Shl(b.AndI(idx, uint64(keys-1)), three2)))
		digit2 := b.AndI(key2, 255)
		posOff := b.Const(j, uint64(keys*8+256*8))
		posAddr := b.Add(bs2, b.Add(posOff, b.Shl(digit2, three2)))
		pos := b.Load(posAddr)
		outOff := b.Const(j, uint64(keys*8+512*8))
		b.Store(b.Add(bs2, b.Add(outOff, b.Shl(b.AndI(pos, uint64(keys-1)), three2))), key2)
		b.Store(posAddr, b.AddI(pos, 1))
	}
	j1 := b.AddI(j, 1)
	out2 := l2.End(b.ULT(j1, b.Const(j, iters(keys))), j1, bs2, b.Nop(j))
	b.Halt(out2[0])

	mem := map[uint64]uint64{}
	for t := 0; t < MaxSplashThreads; t++ {
		r := uint64(t + 1)
		fill(mem, threadRegion(t), keys, func(i int) uint64 {
			r = xorshift(r)
			return r & 0xFFFF
		})
	}
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: threadParams(map[string]uint64{"n": iters(n)}),
	}
}

func buildRaytrace(sc Scale) *Instance {
	pixels := sc.Iters * 4
	scale := 2.0 / float64(pixels)

	b := graph.New("raytrace")
	base := b.Param("base")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	hits0 := b.Const(pn, 0)
	l := b.Loop(i0, hits0, b.Nop(base), b.Nop(pn))
	i, hits, bs, nn := l.Var(0), l.Var(1), l.Var(2), l.Var(3)

	hitsAcc := hits
	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(i, uint64(unroll)), uint64(u))
		// Ray direction from the pixel index.
		px := b.I2F(b.AndI(idx, 1023))
		dx := b.FSub(b.FMul(px, b.ConstF(i, scale)), b.ConstF(i, 1))
		dy := b.FSub(b.FMul(b.I2F(b.AndI(b.ShrI(idx, 5), 1023)), b.ConstF(i, scale)), b.ConstF(i, 1))
		// Shared scene: 8 spheres.
		sIdx := b.AndI(idx, 7)
		five := b.Const(i, 5)
		sx := b.Load(b.AddI(b.Shl(sIdx, five), tableBase))
		sy := b.Load(b.AddI(b.Shl(sIdx, five), tableBase+8))
		sz := b.Load(b.AddI(b.Shl(sIdx, five), tableBase+16))
		r2 := b.Load(b.AddI(b.Shl(sIdx, five), tableBase+24))
		// Quadratic discriminant for the unit-z ray.
		bq := b.FAdd(b.FAdd(b.FMul(dx, sx), b.FMul(dy, sy)), sz)
		c2 := b.FSub(b.FAdd(b.FAdd(b.FMul(sx, sx), b.FMul(sy, sy)), b.FMul(sz, sz)), r2)
		disc := b.FSub(b.FMul(bq, bq), c2)
		hit := b.FLT(b.ConstF(i, 0), disc)
		b.CondStore(hit, b.Add(bs, b.ShlI(b.AndI(idx, 4095), 3)), b.F2I(b.FMul(disc, b.ConstF(i, 255))))
		hitsAcc = b.Add(hitsAcc, hit)
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, hitsAcc, bs, nn)
	b.Halt(out[1])

	mem := map[uint64]uint64{}
	for s := 0; s < 8; s++ {
		o := tableBase + uint64(s)*32
		mem[o] = f(float64(s%5)/4 - 0.5)
		mem[o+8] = f(float64(s%3)/3 - 0.3)
		mem[o+16] = f(2 + float64(s))
		mem[o+24] = f(0.5 + float64(s)*0.2)
	}
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: threadParams(map[string]uint64{"n": iters(pixels)}),
	}
}

func buildWater(sc Scale) *Instance {
	mols := 1
	for mols*mols <= sc.Iters*8 {
		mols *= 2
	}
	if mols < 8 {
		mols = 8
	}
	logM := bits.Len(uint(mols)) - 1
	n := mols * mols

	b := graph.New("water")
	base := b.Param("base")
	pn := b.Param("n")
	p0 := b.Const(pn, 0)
	l := b.Loop(p0, b.Nop(base), b.Nop(pn))
	p, bs, nn := l.Var(0), l.Var(1), l.Var(2)

	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(p, uint64(unroll)), uint64(u))
		i := b.ShrI(idx, uint64(logM))
		j := b.AndI(idx, uint64(mols-1))
		three := b.Const(p, 3)
		xi := b.Load(b.Add(bs, b.Shl(i, three)))
		xj := b.Load(b.Add(bs, b.Shl(j, three)))
		dx := b.FSub(xi, xj)
		r2 := b.FAdd(b.FMul(dx, dx), b.ConstF(p, 1e-3))
		inv := b.FDiv(b.ConstF(p, 1), r2)
		force := b.FMul(inv, dx)
		// Accumulate into F[i]: read-modify-write through memory (kept
		// alive by the partial store queues).
		fOff := b.Const(p, uint64(mols*8))
		fAddr := b.Add(bs, b.Add(fOff, b.Shl(i, three)))
		fcur := b.Load(fAddr)
		b.Store(fAddr, b.FAdd(fcur, force))
	}

	p1 := b.AddI(p, 1)
	out := l.End(b.ULT(p1, nn), p1, bs, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	for t := 0; t < MaxSplashThreads; t++ {
		fill(mem, threadRegion(t), mols, func(i int) uint64 {
			return f(float64((i*17+t)%64) / 16)
		})
	}
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: threadParams(map[string]uint64{"n": iters(n)}),
	}
}
