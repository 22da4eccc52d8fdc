package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"time"

	"wavescalar/internal/area"
	"wavescalar/internal/cli"
	"wavescalar/internal/explore"
	"wavescalar/internal/place"
	"wavescalar/internal/ref"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// simSpec is one simulation: a workload at a scale with a thread count on
// one machine. Every workload's inputs come down to a fixed, enumerated
// set of these; the seed only orders and samples them.
type simSpec struct {
	App     string
	Scale   string // "tiny" or "small"
	Arch    area.Params
	Threads int
}

func (s simSpec) id() string {
	return fmt.Sprintf("%s/%s/%s/t%d", s.App, s.Scale, s.Arch, s.Threads)
}

// onClusters is the Table 1 machine replicated to c clusters.
func onClusters(app, scale string, c, threads int) simSpec {
	arch := sim.BaselineArch()
	arch.Clusters = c
	return simSpec{App: app, Scale: scale, Arch: arch, Threads: threads}
}

// cellSpec is one explore cell: a workload at a scale on one machine,
// searched over thread counts for the best AIPC.
type cellSpec struct {
	App    string
	Scale  string
	Arch   area.Params
	Counts []int
}

func (c cellSpec) id() string { return c.App + "|" + c.Arch.String() }

// resolve turns the spec into what internal/design and internal/explore
// take.
func (c cellSpec) resolve() (sim.Config, workload.Workload, workload.Scale, error) {
	w, sc, err := lookup(c.App, c.Scale)
	return sim.Baseline(c.Arch), w, sc, err
}

// lookup resolves a workload and a scale by name.
func lookup(app, scale string) (workload.Workload, workload.Scale, error) {
	w, err := workload.ByName(app)
	if err != nil {
		return workload.Workload{}, workload.Scale{}, err
	}
	sc, err := cli.ParseScale(scale)
	return w, sc, err
}

// simsOf lists the simulations behind the cells: one per thread count
// the workload supports.
func simsOf(cells []cellSpec) ([]simSpec, error) {
	limit := make(map[string]int)
	var out []simSpec
	for _, c := range cells {
		if _, ok := limit[c.App]; !ok {
			_, w, sc, err := c.resolve()
			if err != nil {
				return nil, err
			}
			limit[c.App] = w.Build(sc).MaxThreads
		}
		for _, n := range c.Counts {
			if n <= limit[c.App] {
				out = append(out, simSpec{App: c.App, Scale: c.Scale, Arch: c.Arch, Threads: n})
			}
		}
	}
	return out, nil
}

// simPin is what expected.json holds per simulation. It names four
// fields and not Stats.Digest(), so that a later field added to Stats
// does not break the ruler.
type simPin struct {
	Cycles    uint64 `json:"cycles"`
	Dynamic   uint64 `json:"dynamic"`
	Countable uint64 `json:"countable"`
	Traffic   uint64 `json:"traffic_total"`
}

func pinOf(st *sim.Stats) simPin {
	return simPin{Cycles: st.Cycles, Dynamic: st.Dynamic, Countable: st.Countable, Traffic: st.TrafficTotal()}
}

// cellPin is what expected.json holds per explore cell (sweep_cold) and
// per hot-set request (serve_hot): the fields of the result a caller
// receives.
type cellPin struct {
	AIPC      float64 `json:"aipc"`
	Threads   int     `json:"threads"`
	Cycles    uint64  `json:"cycles"`
	SimCycles uint64  `json:"sim_cycles"`
}

func cellPinOf(cell explore.Cell) cellPin {
	return cellPin{AIPC: cell.AIPC, Threads: cell.Threads, Cycles: cell.Cycles, SimCycles: cell.SimCycles}
}

// countable recovers the winning run's Alpha-equivalent instruction
// count from a cell: AIPC is countable/cycles.
func (p cellPin) countable() uint64 { return uint64(math.Round(p.AIPC * float64(p.Cycles))) }

// pins is expected.json: the pinned result of every simulation, sweep
// cell and hot-set request of the enumerated universes. `-pin` rewrites it.
type pins struct {
	Sim   map[string]simPin  `json:"sim"`
	Sweep map[string]cellPin `json:"sweep"`
	Serve map[string]cellPin `json:"serve"`
}

//go:embed expected.json
var expectedJSON []byte

// marshal renders the pins one entry to a line, keys sorted, so that a
// regenerated file diffs line by line.
func (p *pins) marshal() []byte {
	var b bytes.Buffer
	b.WriteString("{\n")
	pinSection(&b, "sim", p.Sim, ",")
	pinSection(&b, "sweep", p.Sweep, ",")
	pinSection(&b, "serve", p.Serve, "")
	b.WriteString("}\n")
	return b.Bytes()
}

func pinSection[V any](b *bytes.Buffer, name string, m map[string]V, sep string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, " %q: {\n", name)
	for i, k := range keys {
		v, err := json.Marshal(m[k])
		if err != nil {
			panic(err) // structs of numbers
		}
		comma := ","
		if i == len(keys)-1 {
			comma = ""
		}
		fmt.Fprintf(b, "  %q: %s%s\n", k, v, comma)
	}
	fmt.Fprintf(b, " }%s\n", sep)
}

// pinCells evaluates every cell once through Explorer.RunOne and records
// the results in dst.
func pinCells(ctx context.Context, cells []cellSpec, dst map[string]cellPin) error {
	e, err := explore.New()
	if err != nil {
		return err
	}
	defer e.Close()
	for _, c := range cells {
		cfg, w, sc, err := c.resolve()
		if err != nil {
			return err
		}
		cell, _, err := e.RunOne(ctx, cfg, w, sc, c.Counts)
		if err != nil {
			return err
		}
		if cell.Err != "" {
			return fmt.Errorf("%s: %s", c.id(), cell.Err)
		}
		dst[c.id()] = cellPinOf(cell)
	}
	return nil
}

// shortSum names a seeded schedule by the hash of its lines.
func shortSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

func loadPins() (*pins, error) {
	p := &pins{}
	if err := json.Unmarshal(expectedJSON, p); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return p, nil
}

// simAccum gathers what a span cannot carry: the statistics of each
// distinct simulation and the malloc counts of construction and run.
type simAccum struct {
	stats      map[string]*sim.Stats // by simSpec.id, one entry per distinct simulation
	ops        int
	newMallocs uint64
	runMallocs uint64
}

func newSimAccum() *simAccum { return &simAccum{stats: make(map[string]*sim.Stats)} }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runSim takes one simulation along the route every caller in the
// repository takes: workload.Build, sim.New, Processor.RunContext. With a
// recorder it wraps each call in a span under a "sim.op" root, counts the
// mallocs of construction and run into acc, and then calls place.Place
// directly on the same inputs (a root span of its own: sim.New has
// already done that work once inside "sim.new").
func runSim(ctx context.Context, s simSpec, tr *recorder, acc *simAccum) (*sim.Stats, error) {
	w, sc, err := lookup(s.App, s.Scale)
	if err != nil {
		return nil, err
	}
	cfg := sim.Baseline(s.Arch)

	op := tr.newOp()
	root := tr.begin("sim.op", -1, op)
	id := tr.begin("workload.build", root, op)
	inst := w.Build(sc)
	tr.end(id)
	if s.Threads > inst.MaxThreads {
		return nil, fmt.Errorf("%s: %d threads over the workload's limit of %d", s.id(), s.Threads, inst.MaxThreads)
	}
	params := inst.Params(s.Threads)

	var m0, m1 uint64
	if tr != nil {
		m0 = mallocs()
	}
	id = tr.begin("sim.new", root, op)
	proc, err := sim.New(cfg, inst.Prog, params, sim.Memory(inst.Mem))
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.id(), err)
	}
	if tr != nil {
		m1 = mallocs()
	}
	id = tr.begin("sim.run", root, op)
	st, err := proc.RunContext(ctx)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.id(), err)
	}
	if tr != nil {
		acc.ops++
		acc.newMallocs += m1 - m0
		acc.runMallocs += mallocs() - m1
		acc.stats[s.id()] = st
		id = tr.begin("place.place", -1, op)
		_, err = place.Place(inst.Prog, s.Threads, place.Config{
			Clusters: cfg.Arch.Clusters, Domains: cfg.Arch.Domains,
			PEs: cfg.Arch.PEs, Virt: cfg.Arch.Virt, Policy: cfg.Placement,
		})
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: place: %w", s.id(), err)
		}
	}
	return st, nil
}

// refKey names what the reference interpreter's result depends on: it
// is untimed, so the machine drops out.
type refKey struct {
	App, Scale string
	Threads    int
}

// refResult is what the reference interpreter says about a set of
// simulations.
type refResult struct {
	countable map[refKey]uint64 // Alpha-equivalent instructions each must execute
	kinstPerS float64           // the interpreter's own speed
}

// refCheck runs internal/ref once per distinct (workload, scale,
// threads) of the specs.
func refCheck(specs []simSpec) (refResult, error) {
	res := refResult{countable: make(map[refKey]uint64)}
	var dynamic uint64
	var spent time.Duration
	for _, s := range specs {
		k := refKey{s.App, s.Scale, s.Threads}
		if _, done := res.countable[k]; done {
			continue
		}
		w, sc, err := lookup(s.App, s.Scale)
		if err != nil {
			return res, err
		}
		inst := w.Build(sc)
		start := time.Now()
		got, err := ref.RunThreads(inst.Prog, inst.Mem, inst.Params(s.Threads))
		spent += time.Since(start)
		if err != nil {
			return res, fmt.Errorf("ref %s/%s/t%d: %w", s.App, s.Scale, s.Threads, err)
		}
		res.countable[k] = got.Countable
		dynamic += got.Dynamic
	}
	res.kinstPerS = ratio(float64(dynamic)/1000, spent.Seconds())
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simLayerMetrics turns the spans and statistics of traced simulations
// into the simulator's block of the ledger. Times are per simulation;
// the counts are sums over the distinct simulations, each counted once.
func simLayerMetrics(spans []span, acc *simAccum, out map[string]float64) {
	total, n := totalTimes(spans)
	ops := float64(n["sim.op"])
	if ops == 0 {
		return
	}
	ms := func(name string) float64 { return total[name].Seconds() * 1000 / ops }
	out["workload.build_ms_per_op"] = ms("workload.build")
	out["place.place_ms_per_op"] = ms("place.place")
	out["sim.new_ms_per_op"] = ms("sim.new")
	out["sim.construct_ms_per_op"] = ms("sim.new") - ms("place.place")
	out["sim.run_ms_per_op"] = ms("sim.run")
	out["sim.run_share"] = ratio(total["sim.run"].Seconds(), total["sim.op"].Seconds())
	out["sim.construct_mallocs_per_op"] = ratio(float64(acc.newMallocs), float64(acc.ops))

	// Sums over each distinct simulation once, in a fixed order so the
	// floating-point results repeat exactly.
	ids := make([]string, 0, len(acc.stats))
	for id := range acc.stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sum sim.Stats
	var traffic uint64
	logAIPC := 0.0
	for _, id := range ids {
		st := acc.stats[id]
		sum.Cycles += st.Cycles
		sum.Dynamic += st.Dynamic
		sum.InputRejects += st.InputRejects
		sum.Match.Inserts += st.Match.Inserts
		sum.Match.Evictions += st.Match.Evictions
		sum.Match.KRejects += st.Match.KRejects
		sum.Match.BankRejects += st.Match.BankRejects
		sum.IStoreHits += st.IStoreHits
		sum.IStoreMisses += st.IStoreMisses
		sum.StoreBuf.PSQStalls += st.StoreBuf.PSQStalls
		sum.Cache.L1Hits += st.Cache.L1Hits
		sum.Cache.L1Misses += st.Cache.L1Misses
		sum.Cache.L2Hits += st.Cache.L2Hits
		sum.Cache.L2Misses += st.Cache.L2Misses
		sum.Noc.Injected += st.Noc.Injected
		sum.Noc.Delivered += st.Noc.Delivered
		sum.Noc.TotalHops += st.Noc.TotalHops
		sum.Noc.Blocked += st.Noc.Blocked
		sum.OperandLatTotal += st.OperandLatTotal
		sum.OperandCount += st.OperandCount
		sum.MemLatTotal += st.MemLatTotal
		sum.MemAccesses += st.MemAccesses
		traffic += st.TrafficTotal()
		logAIPC += math.Log(st.AIPC())
	}
	// Host time per simulated event: every traced pass runs each distinct
	// simulation the same number of times, so time per pass over the sums
	// of one pass is time per event.
	passes := ratio(ops, float64(len(ids)))
	runNS := ratio(float64(total["sim.run"].Nanoseconds()), passes)
	attempts := float64(sum.Match.Inserts + sum.InputRejects)
	kinst := float64(sum.Dynamic) / 1000
	out["sim.ns_per_inst"] = ratio(runNS, float64(sum.Dynamic))
	out["sim.ns_per_cycle"] = ratio(runNS, float64(sum.Cycles))
	out["sim.ns_per_input_attempt"] = ratio(runNS, attempts)
	out["sim.run_mallocs_per_kinst"] = ratio(float64(acc.runMallocs), passes*kinst)
	out["sim.input_accept_ratio"] = ratio(float64(sum.Match.Inserts), attempts)
	out["sim.rejects_per_inst"] = ratio(float64(sum.InputRejects), float64(sum.Dynamic))
	out["sim.aipc_geomean"] = math.Exp(logAIPC / float64(len(ids)))
	out["match.evictions_per_kinst"] = ratio(float64(sum.Match.Evictions), kinst)
	out["match.krejects_per_kinst"] = ratio(float64(sum.Match.KRejects), kinst)
	out["match.bankrejects_per_kinst"] = ratio(float64(sum.Match.BankRejects), kinst)
	out["istore.miss_rate"] = ratio(float64(sum.IStoreMisses), float64(sum.IStoreHits+sum.IStoreMisses))
	out["storebuf.psq_stalls_per_kinst"] = ratio(float64(sum.StoreBuf.PSQStalls), kinst)
	out["cache.l1_miss_rate"] = ratio(float64(sum.Cache.L1Misses), float64(sum.Cache.L1Hits+sum.Cache.L1Misses))
	out["cache.l2_miss_rate"] = ratio(float64(sum.Cache.L2Misses), float64(sum.Cache.L2Hits+sum.Cache.L2Misses))
	out["noc.msgs_per_kinst"] = ratio(float64(traffic), kinst)
	out["noc.avg_hops"] = ratio(float64(sum.Noc.TotalHops), float64(sum.Noc.Delivered))
	out["noc.blocked_per_kmsg"] = ratio(float64(sum.Noc.Blocked), float64(sum.Noc.Injected)/1000)
	out["sim.operand_lat_avg"] = ratio(float64(sum.OperandLatTotal), float64(sum.OperandCount))
	out["sim.mem_lat_avg"] = ratio(float64(sum.MemLatTotal), float64(sum.MemAccesses))
}
