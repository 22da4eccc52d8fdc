package workload

import (
	"wavescalar/internal/graph"
)

// The Mediabench stand-ins:
//
//	djpeg       — IDCT-style integer butterflies over 8-sample blocks
//	mpeg2encode — sum-of-absolute-differences motion estimation
//	rawdaudio   — ADPCM decode: a tight serial predictor recurrence

func init() {
	register(newWorkload("djpeg", Media, buildDjpeg))
	register(newWorkload("mpeg2encode", Media, buildMpeg2))
	register(newWorkload("rawdaudio", Media, buildRawdaudio))
}

func buildDjpeg(sc Scale) *Instance {
	n := sc.Iters * 16
	words := sc.Footprint / 8
	mask := uint64(words - 1)

	b := graph.New("djpeg")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	l := b.Loop(i0, b.Nop(pn))
	i, nn := l.Var(0), l.Var(1)

	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(i, uint64(unroll)), uint64(u))
		// One radix-2 butterfly per unrolled slot over an 8-sample block:
		// block = idx/4, pair = idx%4 pairs (p, p+4).
		blk := b.ShlI(b.AndI(b.ShrI(idx, 2), mask>>3), 3)
		p := b.AndI(idx, 3)
		aAddr := b.AddI(b.ShlI(b.Add(blk, p), 3), dataBase)
		bAddr := b.AddI(b.ShlI(b.Add(blk, b.AddI(p, 4)), 3), dataBase)
		av := b.Load(aAddr)
		bv := b.Load(bAddr)
		sum := b.Add(av, bv)
		// Scaled difference: the fixed-point multiply of the IDCT.
		diff := b.ShrI(b.MulI(b.Sub(av, bv), 46341), 16)
		b.Store(aAddr, sum)
		b.Store(bAddr, diff)
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	fill(mem, dataBase, words, func(i int) uint64 { return uint64((i*31)%256) + 1 })
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": iters(n)}),
	}
}

func buildMpeg2(sc Scale) *Instance {
	n := sc.Iters * 16
	words := sc.Footprint / 8
	mask := uint64(words - 1)

	b := graph.New("mpeg2encode")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	sad0 := b.Const(pn, 0)
	best0 := b.Const(pn, 1<<40)
	l := b.Loop(i0, sad0, best0, b.Nop(pn))
	i, sad, best, nn := l.Var(0), l.Var(1), l.Var(2), l.Var(3)

	idx := b.AndI(i, mask)
	p := b.Load(b.AddI(b.ShlI(idx, 3), dataBase))
	q := b.Load(b.AddI(b.ShlI(b.AndI(b.AddI(i, 5), mask), 3), tableBase))
	d := b.Sub(p, q)
	neg := b.LT(d, b.Const(i, 0))
	ad := b.Select(neg, b.Sub(q, p), d)
	sad1 := b.Add(sad, ad)
	// Block boundary every 16 samples: commit the candidate and reset.
	boundary := b.EQ(b.AndI(i, 15), b.Const(i, 15))
	better := b.And(boundary, b.LT(sad1, best))
	best1 := b.Select(better, sad1, best)
	b.CondStore(better, b.Const(i, outBase), i)
	sad2 := b.Select(boundary, b.Const(i, 0), sad1)

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, sad2, best1, nn)
	b.Halt(out[2])

	mem := map[uint64]uint64{}
	fill(mem, dataBase, words, func(i int) uint64 { return uint64((i * 7) % 255) })
	fill(mem, tableBase, words, func(i int) uint64 { return uint64((i*7 + 3) % 255) })
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": uint64(n)}),
	}
}

func buildRawdaudio(sc Scale) *Instance {
	n := sc.Iters * 8
	codes := sc.Footprint / 8
	mask := uint64(codes - 1)

	b := graph.New("rawdaudio")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	pred0 := b.Const(pn, 0)
	step0 := b.Const(pn, 7)
	l := b.Loop(i0, pred0, step0, b.Nop(pn))
	i, pred, step, nn := l.Var(0), l.Var(1), l.Var(2), l.Var(3)

	// ADPCM inner loop: everything depends on the previous sample.
	code := b.Load(b.AddI(b.ShlI(b.AndI(i, mask), 3), dataBase))
	// delta = step*(code&3)/4 + step/8, negated when bit 3 is set.
	mag := b.Add(b.ShrI(b.Mul(step, b.AndI(code, 3)), 2), b.ShrI(step, 3))
	signBit := b.AndI(b.ShrI(code, 3), 1)
	delta := b.Select(signBit, b.Sub(b.Const(i, 0), mag), mag)
	pred1 := b.Add(pred, delta)
	// Clamp to 16-bit range.
	hi := b.Const(i, 32767)
	lo := b.Const(i, ^uint64(32767)) // -32768
	pred2 := b.Select(b.LT(hi, pred1), hi, pred1)
	pred3 := b.Select(b.LT(pred2, lo), lo, pred2)
	// Step adaptation via the index table.
	adj := b.Load(b.AddI(b.ShlI(b.AndI(code, 7), 3), tableBase))
	step1 := b.Add(b.ShrI(b.Mul(step, adj), 6), b.Const(i, 1))
	b.Store(b.AddI(b.ShlI(b.AndI(i, mask), 3), outBase), pred3)

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, pred3, step1, nn)
	b.Halt(out[1])

	mem := map[uint64]uint64{}
	r := uint64(5)
	fill(mem, dataBase, codes, func(i int) uint64 {
		r = xorshift(r)
		return r & 15
	})
	// Step multipliers around 64 (fixed point x/64).
	steps := []uint64{57, 57, 60, 64, 70, 78, 88, 100}
	fill(mem, tableBase, 8, func(i int) uint64 { return steps[i] })
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": uint64(n)}),
	}
}
