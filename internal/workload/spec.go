package workload

import (
	"wavescalar/internal/graph"
)

// The Spec2000 stand-ins. Each mimics its application's dominant loop:
//
//	gzip   — LZ-style hashing and match detection (integer, hash-table loads)
//	mcf    — pointer chasing over a large arena (memory-latency bound, 4-way MLP)
//	twolf  — cost-delta evaluation with conditional swaps (integer + branchy stores)
//	ammp   — particle force evaluation (dense floating point, light memory)
//	art    — neural-net weight streaming (FP multiply-accumulate over arrays)
//	equake — sparse matrix-vector product (indirect indexed loads, FP)
//
// Bodies are unrolled (like the splash kernels) so static program sizes and
// per-iteration ILP reach the regime where the paper's design parameters
// matter; mcf and rawdaudio stay serial — that is their character.

func init() {
	register(newWorkload("gzip", Spec, buildGzip))
	register(newWorkload("mcf", Spec, buildMcf))
	register(newWorkload("twolf", Spec, buildTwolf))
	register(newWorkload("ammp", Spec, buildAmmp))
	register(newWorkload("art", Spec, buildArt))
	register(newWorkload("equake", Spec, buildEquake))
}

const (
	dataBase  = 0x10_0000
	tableBase = 0x40_0000
	outBase   = 0x80_0000
)

func buildGzip(sc Scale) *Instance {
	n := sc.Iters * 16
	words := sc.Footprint / 8
	mask := uint64(words - 1)

	b := graph.New("gzip")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	acc0 := b.Const(pn, 0)
	l := b.Loop(i0, acc0, b.Nop(pn))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)

	accN := acc
	for u := 0; u < unroll; u++ {
		idx := b.AddI(b.MulI(i, uint64(unroll)), uint64(u))
		// Load the next input word and hash it.
		w := b.Load(b.AddI(b.ShlI(b.AndI(idx, mask), 3), dataBase))
		h := b.AndI(b.ShrI(b.MulI(w, 0x9E3779B97F4A7C15), 52), 255)
		// Probe the hash chain: candidate position, then the candidate word.
		cand := b.Load(b.AddI(b.ShlI(h, 3), tableBase))
		cw := b.Load(b.AddI(b.ShlI(b.AndI(cand, mask), 3), dataBase))
		// Match? Extend the accumulated match length, else reset credit.
		match := b.EQ(cw, w)
		accN = b.Add(accN, b.Select(match, b.Const(i, 8), b.Const(i, 1)))
		// Update the hash table with our position.
		b.Store(b.AddI(b.ShlI(h, 3), tableBase), idx)
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, accN, nn)
	b.Halt(out[1])

	mem := map[uint64]uint64{}
	fill(mem, dataBase, words, func(i int) uint64 {
		// Compressible input: long runs with occasional breaks.
		return uint64(i/7) % 31
	})
	fill(mem, tableBase, 256, func(i int) uint64 { return 0 })
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": iters(n)}),
	}
}

func buildMcf(sc Scale) *Instance {
	n := sc.Iters * 8
	// Large arena: mcf's defining property is a working set far beyond
	// the L1 — pointer chasing through it is memory-latency bound. Four
	// independent chains give it mcf's modest memory-level parallelism.
	nodes := sc.Footprint // in words: 8x the nominal footprint in bytes
	if nodes < 64 {
		nodes = 64
	}
	const chains = 4

	b := graph.New("mcf")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	cost0 := b.Const(pn, 0)
	vars := []graph.Value{i0, cost0}
	for c := 0; c < chains; c++ {
		vars = append(vars, b.Const(pn, uint64(1+c*7)))
	}
	vars = append(vars, b.Nop(pn))
	l := b.Loop(vars...)
	i, cost, nn := l.Var(0), l.Var(1), l.Var(2+chains)

	costN := cost
	var next []graph.Value
	for c := 0; c < chains; c++ {
		node := l.Var(2 + c)
		// Follow the successor pointer; accumulate the arc cost.
		succ := b.Load(b.AddI(b.ShlI(node, 3), dataBase))
		price := b.Load(b.AddI(b.ShlI(node, 3), tableBase))
		costN = b.Add(costN, price)
		// Occasionally reroute: if the cost crosses a threshold, restart
		// the chase at a derived node (mcf's arc re-pricing flavor).
		hot := b.LTI(b.AndI(costN, 1023), 16)
		next = append(next, b.Select(hot, b.AndI(costN, uint64(nodes-1)), succ))
	}

	i1 := b.AddI(i, 1)
	ends := append([]graph.Value{i1, costN}, next...)
	ends = append(ends, nn)
	out := l.End(b.ULT(i1, nn), ends...)
	b.Halt(out[1])

	mem := map[uint64]uint64{}
	r := uint64(12345)
	fill(mem, dataBase, nodes, func(i int) uint64 {
		r = xorshift(r + uint64(i))
		return r % uint64(nodes)
	})
	fill(mem, tableBase, nodes, func(i int) uint64 { return uint64(i % 97) })
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": uint64(n)}),
	}
}

func buildTwolf(sc Scale) *Instance {
	n := sc.Iters * 12
	cells := sc.Footprint / 8
	mask := uint64(cells - 1)

	b := graph.New("twolf")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	rng0 := b.Const(pn, 88172645463325252)
	best0 := b.Const(pn, 1<<40)
	l := b.Loop(i0, rng0, best0, b.Nop(pn))
	i, rng, best, nn := l.Var(0), l.Var(1), l.Var(2), l.Var(3)

	// Two swap evaluations per iteration from one xorshift stream.
	r := rng
	bestN := best
	for u := 0; u < 2; u++ {
		r1 := b.Xor(r, b.ShlI(r, 13))
		r2 := b.Xor(r1, b.ShrI(r1, 7))
		r = b.Xor(r2, b.ShlI(r2, 17))
		ai := b.AndI(r, mask)
		bi := b.AndI(b.ShrI(r, 17), mask)
		aAddr := b.AddI(b.ShlI(ai, 3), dataBase)
		bAddr := b.AddI(b.ShlI(bi, 3), dataBase)
		ca := b.Load(aAddr)
		cb := b.Load(bAddr)
		// Wirelength delta of swapping the two cells.
		delta := b.Mul(b.Sub(ca, cb), b.Sub(bi, ai))
		improve := b.LT(delta, b.Const(i, 0))
		// Accept the swap when it improves the cost.
		b.CondStore(improve, aAddr, cb)
		b.CondStore(improve, bAddr, ca)
		bestN = b.Select(improve, b.Add(bestN, delta), bestN)
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, r, bestN, nn)
	b.Halt(out[2])

	mem := map[uint64]uint64{}
	rr := uint64(7)
	fill(mem, dataBase, cells, func(i int) uint64 {
		rr = xorshift(rr)
		return rr % 1000
	})
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": uint64(n / 2)}),
	}
}

func buildAmmp(sc Scale) *Instance {
	n := sc.Iters * 12
	atoms := sc.Footprint / 32
	mask := uint64(atoms - 1)

	b := graph.New("ammp")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	e0 := b.ConstF(pn, 0)
	l := b.Loop(i0, e0, b.Nop(pn))
	i, energy, nn := l.Var(0), l.Var(1), l.Var(2)

	eN := energy
	for u := 0; u < unroll; u++ {
		idx := b.AndI(b.AddI(b.MulI(i, uint64(unroll)), uint64(u)), mask)
		x := b.Load(b.AddI(b.ShlI(idx, 3), dataBase))
		y := b.Load(b.AddI(b.ShlI(idx, 3), dataBase+1<<16))
		z := b.Load(b.AddI(b.ShlI(idx, 3), dataBase+2<<16))
		cx := b.ConstF(i, 0.5)
		dx := b.FSub(x, cx)
		dy := b.FSub(y, cx)
		dz := b.FSub(z, cx)
		r2 := b.FAdd(b.FAdd(b.FMul(dx, dx), b.FMul(dy, dy)), b.FMul(dz, dz))
		inv := b.FDiv(b.ConstF(i, 1.0), b.FAdd(r2, b.ConstF(i, 1e-6)))
		// Lennard-Jones-ish: inv^3 - inv^2 terms.
		inv2 := b.FMul(inv, inv)
		inv3 := b.FMul(inv2, inv)
		term := b.FSub(inv3, inv2)
		eN = b.FAdd(eN, term)
		b.Store(b.AddI(b.ShlI(idx, 3), outBase), b.FMul(term, dx))
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, eN, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	for a := 0; a < 3; a++ {
		fill(mem, uint64(dataBase+a<<16), atoms, func(i int) uint64 {
			return f(float64((i*37+a*11)%100) / 100)
		})
	}
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": iters(n)}),
	}
}

func buildArt(sc Scale) *Instance {
	n := sc.Iters * 16
	w := sc.Footprint / 8
	mask := uint64(w - 1)

	b := graph.New("art")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	acc0 := b.ConstF(pn, 0)
	l := b.Loop(i0, acc0, b.Nop(pn))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)

	accN := acc
	for u := 0; u < unroll; u++ {
		idx := b.AndI(b.AddI(b.MulI(i, uint64(unroll)), uint64(u)), mask)
		wt := b.Load(b.AddI(b.ShlI(idx, 3), dataBase))
		in := b.Load(b.AddI(b.ShlI(b.AndI(b.AddI(idx, 3), mask), 3), tableBase))
		prod := b.FMul(wt, in)
		accN = b.FAdd(b.FMul(accN, b.ConstF(i, 0.999)), prod)
		b.Store(b.AddI(b.ShlI(idx, 3), outBase), accN)
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, accN, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	fill(mem, dataBase, w, func(i int) uint64 { return f(float64(i%17) / 16) })
	fill(mem, tableBase, w, func(i int) uint64 { return f(float64(i%13) / 12) })
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": iters(n)}),
	}
}

func buildEquake(sc Scale) *Instance {
	n := sc.Iters * 16
	rows := sc.Footprint / 8
	mask := uint64(rows - 1)

	b := graph.New("equake")
	pn := b.Param("n")
	i0 := b.Const(pn, 0)
	acc0 := b.ConstF(pn, 0)
	l := b.Loop(i0, acc0, b.Nop(pn))
	i, acc, nn := l.Var(0), l.Var(1), l.Var(2)

	accN := acc
	for u := 0; u < unroll; u++ {
		idx := b.AndI(b.AddI(b.MulI(i, uint64(unroll)), uint64(u)), mask)
		// Sparse structure: column index, then the indirect vector element.
		col := b.Load(b.AddI(b.ShlI(idx, 3), tableBase))
		v := b.Load(b.AddI(b.ShlI(b.AndI(col, mask), 3), dataBase))
		a := b.Load(b.AddI(b.ShlI(idx, 3), dataBase+1<<16))
		accN = b.FAdd(accN, b.FMul(a, v))
		// Row boundary every 8 entries: flush the accumulator.
		boundary := b.EQ(b.AndI(idx, 7), b.Const(i, 7))
		b.CondStore(boundary, b.AddI(b.ShlI(b.ShrI(idx, 3), 3), outBase), accN)
		accN = b.Select(boundary, b.ConstF(i, 0), accN)
	}

	i1 := b.AddI(i, 1)
	out := l.End(b.ULT(i1, nn), i1, accN, nn)
	b.Halt(out[0])

	mem := map[uint64]uint64{}
	r := uint64(99)
	fill(mem, tableBase, rows, func(i int) uint64 {
		r = xorshift(r)
		return r % uint64(rows)
	})
	fill(mem, dataBase, rows, func(i int) uint64 { return f(float64(i%23) / 22) })
	fill(mem, uint64(dataBase+1<<16), rows, func(i int) uint64 { return f(float64(i%7) / 6) })
	return &Instance{
		Prog: b.MustFinish(), Mem: mem,
		params: singleThread(map[string]uint64{"n": iters(n)}),
	}
}
