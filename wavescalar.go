// Package wavescalar is a cycle-level simulator and design-space explorer
// for the WaveScalar tiled dataflow architecture, reproducing
// "Area-Performance Trade-offs in Tiled Dataflow Architectures"
// (Swanson et al., ISCA 2006).
//
// The package exposes six layers:
//
//   - Programs: build WaveScalar dataflow graphs with NewProgram (loops,
//     steering, wave-ordered memory) or use the bundled benchmark suite
//     (Workloads, WorkloadByName) — synthetic stand-ins for the paper's
//     Spec2000, Mediabench and Splash2 applications, plus the
//     parameterized tiled GEMM/conv kernels (names like "gemm-os-8x8x8").
//   - Simulation: configure a processor (Baseline, BaselineArch) and run
//     programs on it (BuildProcessor, RunWorkloadContext); Stats reports
//     AIPC, traffic by interconnect level, and component counters.
//   - Area: the paper's Table 3 area model (TotalArea, ClusterBudget).
//   - Design space: enumeration, pruning and Pareto analysis (DesignSpace,
//     ViableDesigns, SweepFrontier); sweeps and the Table 4 matching-table
//     tuning run on the exploration engine below.
//   - Exploration: the resumable, cancellable engine with result caching
//     and journaling (NewExplorer with functional options; Explorer.Sweep,
//     Explorer.Tune).
//   - Serving: the simulation-as-a-service daemon — an HTTP/JSON API over
//     the exploration engine with singleflight dedup, a bounded worker
//     pool and Prometheus metrics (NewServer; cmd/wsd).
//
// Entry points are context-aware (RunWorkloadContext, Explorer.Sweep):
// they accept a context.Context and stop within a few thousand simulated
// cycles of cancellation. Experiments can also be described declaratively
// as versioned JSON scenario documents (ParseScenario; POST /v1/scenarios
// on the daemon).
//
// The package is a facade over internal/*: it exports what the binaries
// under cmd/, the program under examples/ and the README's code use, plus
// the types and error sentinels those calls hand back. Code inside the
// module imports internal/* directly (TestFacadeNamesHaveCallers).
package wavescalar

import (
	"context"
	"fmt"
	"time"

	"wavescalar/internal/area"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/graph"
	"wavescalar/internal/isa"
	"wavescalar/internal/scenario"
	"wavescalar/internal/server"
	"wavescalar/internal/sim"
	"wavescalar/internal/trace"
	"wavescalar/internal/workload"
)

// Core simulation types.
type (
	// Config is a full processor configuration: architecture parameters
	// plus microarchitectural knobs.
	Config = sim.Config
	// ArchParams are the seven area-model parameters (Table 3).
	ArchParams = area.Params
	// Stats reports a run's AIPC, traffic distribution and counters.
	Stats = sim.Stats
	// Processor is a configured machine ready to Run one program.
	Processor = sim.Processor
	// Memory is the flat functional memory image.
	Memory = sim.Memory
	// Program is a WaveScalar dataflow binary.
	Program = isa.Program
	// ProgramBuilder constructs dataflow programs.
	ProgramBuilder = graph.Builder
	// TrafficLevel indexes Stats.Traffic by interconnect level (Figure 8).
	TrafficLevel = sim.TrafficLevel
)

// Run-failure sentinels, matchable with errors.Is on the error a Run
// returns.
var (
	// ErrDeadlock means the machine made no forward progress for
	// Config.StallLimit cycles.
	ErrDeadlock = sim.ErrDeadlock
	// ErrNotQuiesced means in-flight state failed to drain after all
	// threads halted.
	ErrNotQuiesced = sim.ErrNotQuiesced
	// ErrMaxCycles means the run exceeded Config.MaxCycles.
	ErrMaxCycles = sim.ErrMaxCycles
	// ErrBadOptions is wrapped by the validating, context-aware entry
	// points (RunWorkloadContext, NewExplorer, design sweeps/tunes) when
	// their options are malformed; match with errors.Is.
	ErrBadOptions = design.ErrBadOptions
	// ErrBadCompletion means the memory system completed a request the
	// simulator was not tracking — an internal anomaly, reported instead
	// of panicking.
	ErrBadCompletion = sim.ErrBadCompletion
)

// Scenario DSL: declarative experiment descriptions (internal/scenario).

// Scenario is a parsed "scenario v1" document: a workload (named or
// tiled-kernel parameters) composed with a scale, thread counts and an
// optional phase sequence. Digest gives
// its content address; ResolvePhases lowers it to runnable phases.
type Scenario = scenario.Scenario

// ErrBadScenario wraps every scenario parse and validation failure.
var ErrBadScenario = scenario.ErrBadScenario

// ParseScenario decodes and validates a scenario document — strict JSON
// (unknown fields rejected), a mandatory {"scenario": "v1"} version tag,
// and every referenced workload, scale, and thread count checked. The
// daemon's POST /v1/scenarios accepts exactly what ParseScenario accepts.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// Tracing types: the cycle-level observability layer (internal/trace).
type (
	// TraceRecorder collects typed cycle-level events; attach one via
	// Config.Trace. A nil recorder disables tracing at zero cost.
	TraceRecorder = trace.Recorder
	// TraceOptions sizes a recorder (ring capacity, counter interval).
	TraceOptions = trace.Options
)

// NewTraceRecorder creates an event recorder. Attach it to Config.Trace,
// run, then export with WriteChromeTrace (Perfetto-loadable JSON) and
// WriteCounterCSV (per-interval utilization/traffic time series), or
// query HottestPEs / HottestLinks.
func NewTraceRecorder(opt TraceOptions) *TraceRecorder { return trace.New(opt) }

// Traffic levels and classes (Figure 8 categories).
const (
	LevelSelf    = sim.LevelSelf
	LevelPod     = sim.LevelPod
	LevelDomain  = sim.LevelDomain
	LevelCluster = sim.LevelCluster
	LevelGrid    = sim.LevelGrid

	ClassOperand = sim.ClassOperand
	ClassMemory  = sim.ClassMemory
)

// Workload types.
type (
	// Workload is a named benchmark from the bundled suite.
	Workload = workload.Workload
	// Scale sizes a workload's dynamic work.
	Scale = workload.Scale
)

// Workload scales: ScaleTiny for tests, ScaleSmall for benchmarks.
var (
	ScaleTiny  = workload.Tiny
	ScaleSmall = workload.Small
)

// SuiteSplash is the Workload.Suite of the multithreaded Splash2 kernels,
// the one suite whose runs scale with the thread count.
const SuiteSplash = workload.Splash

// Design-space types.
type (
	// DesignPoint is one candidate configuration with modeled area.
	DesignPoint = design.Point
	// Evaluated pairs a design with measured AIPC.
	Evaluated = design.Evaluated
	// SweepResult is a design's performance across a suite.
	SweepResult = design.SweepResult
	// Tuning is a Table 4 row: k_opt, u_opt, virtualization ratio.
	Tuning = design.Tuning
)

// NewProgram returns a builder for a dataflow program.
func NewProgram(name string) *ProgramBuilder { return graph.New(name) }

// BaselineArch returns the paper's Table 1 architecture: one cluster of 4
// domains of 8 PEs, 128-entry matching tables and instruction stores.
func BaselineArch() ArchParams { return sim.BaselineArch() }

// Baseline returns the Table 1 microarchitecture for an architecture.
func Baseline(arch ArchParams) Config { return sim.Baseline(arch) }

// ProcOption configures BuildProcessor.
type ProcOption func(*procOptions)

type procOptions struct {
	cfg    Config
	params []map[string]uint64
	mem    Memory
}

// ProcConfig sets the processor configuration (default
// Baseline(BaselineArch())).
func ProcConfig(cfg Config) ProcOption {
	return func(o *procOptions) { o.cfg = cfg }
}

// ProcParams sets one parameter map per thread; the thread count is
// len(params) (default: one thread with no parameters).
func ProcParams(params ...map[string]uint64) ProcOption {
	return func(o *procOptions) { o.params = params }
}

// ProcMemory seeds the functional memory (it is copied).
func ProcMemory(mem Memory) ProcOption {
	return func(o *procOptions) { o.mem = mem }
}

// BuildProcessor builds a processor for prog. With no options it runs one
// thread of prog on the paper's Table 1 baseline with empty memory; use
// ProcConfig, ProcParams and ProcMemory to override. The returned
// Processor runs with Run or, for cancellation, RunContext.
func BuildProcessor(prog *Program, opts ...ProcOption) (*Processor, error) {
	o := procOptions{
		cfg:    Baseline(BaselineArch()),
		params: []map[string]uint64{{}},
	}
	for _, opt := range opts {
		opt(&o)
	}
	return sim.New(o.cfg, prog, o.params, o.mem)
}

// Workloads returns the bundled benchmark suite: the paper's 15 kernels
// across spec2000, mediabench and splash2, plus the default tiled
// GEMM/conv variants.
func Workloads() []Workload { return workload.All() }

// WorkloadByName resolves a workload name: a bundled kernel, or any valid
// tiled-kernel name (e.g. "gemm-os-8x8x8", "conv-ws-4x4x2"), synthesized
// on the fly. Unknown names return a *workload.NotFoundError listing the
// valid namespaces.
func WorkloadByName(name string) (Workload, error) {
	return workload.ByName(name)
}

// RunOption configures RunWorkloadContext.
type RunOption func(*runOptions)

type runOptions struct {
	cfg     Config
	scale   Scale
	threads int
}

// WithConfig sets the processor configuration (default
// Baseline(BaselineArch())).
func WithConfig(cfg Config) RunOption {
	return func(o *runOptions) { o.cfg = cfg }
}

// AtScale sets the workload scale (default ScaleTiny).
func AtScale(sc Scale) RunOption {
	return func(o *runOptions) { o.scale = sc }
}

// WithThreads sets the thread count (default 1).
func WithThreads(n int) RunOption {
	return func(o *runOptions) { o.threads = n }
}

// RunWorkloadContext builds the named workload and runs it, honouring ctx:
// the simulation aborts within a few thousand cycles of cancellation.
// With no options it runs one thread at ScaleTiny on the paper's Table 1
// baseline. Malformed options (a degenerate scale, a thread count outside
// 1 to the kernel's limit) fail before any simulation with an error
// wrapping ErrBadOptions.
func RunWorkloadContext(ctx context.Context, name string, opts ...RunOption) (*Stats, error) {
	o := runOptions{
		cfg:     Baseline(BaselineArch()),
		scale:   ScaleTiny,
		threads: 1,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.scale.Iters <= 0 || o.scale.Footprint <= 0 {
		return nil, fmt.Errorf("%w: scale %+v (use ScaleTiny/ScaleSmall)", ErrBadOptions, o.scale)
	}
	w, err := WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	inst := w.Build(o.scale)
	return design.RunOnceContext(ctx, o.cfg, inst, o.threads)
}

// Area model (Table 3).

// TotalArea returns a configuration's modeled die area in mm² at 90nm.
func TotalArea(arch ArchParams) float64 { return area.Total(arch) }

// PEArea returns one processing element's area for the given instruction
// store and matching table capacities.
func PEArea(virt, match int) float64 { return area.PE(virt, match) }

// ClusterArea returns one cluster's area.
func ClusterArea(arch ArchParams) float64 { return area.Cluster(arch) }

// ClusterBudget renders the Table 2 per-component cluster budget.
func ClusterBudget() string { return area.BaselineBudget().Format() }

// Design space (Section 4.2).

// DesignSpace enumerates every configuration in the area model's parameter
// ranges (the paper's >21,000 configurations).
func DesignSpace() []DesignPoint { return design.Enumerate() }

// ViableDesigns applies the pruning rules and returns the buildable,
// balanced designs the Pareto analysis evaluates.
func ViableDesigns() []DesignPoint { return design.Viable() }

// DesignRules documents the pruning rules applied by ViableDesigns.
func DesignRules() []string { return append([]string(nil), design.Rules...) }

// SweepFrontier extracts the Pareto frontier from sweep results.
func SweepFrontier(results []SweepResult) []Evaluated { return design.Frontier(results) }

// Exploration engine: resumable, cancellable sweeps with result caching
// (internal/explore).

type (
	// Explorer orchestrates cached, journaled, cancellable design-space
	// sweeps and tunings. Build one with NewExplorer, run Sweep/Tune,
	// then Close to release the journal.
	Explorer = explore.Explorer
	// ExploreOption is a functional option for NewExplorer.
	ExploreOption = explore.Option
	// ExploreProgress is the per-cell progress snapshot delivered to
	// WithProgress (cells done, cache hits, sims/sec, ETA).
	ExploreProgress = explore.Progress
)

// NewExplorer builds the exploration engine. With no options it sweeps at
// ScaleTiny, one thread, GOMAXPROCS-wide, with a fresh private cache and
// no journal. Options are validated eagerly (errors wrap ErrBadOptions).
//
//	exp, err := wavescalar.NewExplorer(
//		wavescalar.WithJournal("sweep.jsonl", true), // resume if present
//		wavescalar.WithThreadCounts(1, 4, 16, 64),
//		wavescalar.WithProgress(func(p wavescalar.ExploreProgress) { ... }),
//	)
//	results, err := exp.Sweep(ctx, points, apps)
func NewExplorer(opts ...ExploreOption) (*Explorer, error) { return explore.New(opts...) }

// WithJournal backs the cache with a JSONL journal; with resume set,
// existing records are replayed so only missing cells simulate.
func WithJournal(path string, resume bool) ExploreOption { return explore.WithJournal(path, resume) }

// WithParallelism sets the number of concurrent simulations.
func WithParallelism(n int) ExploreOption { return explore.WithParallelism(n) }

// WithProgress installs a per-completed-cell progress callback.
func WithProgress(fn func(ExploreProgress)) ExploreOption { return explore.WithProgress(fn) }

// WithScale sets the workload scale swept.
func WithScale(sc Scale) ExploreOption { return explore.WithScale(sc) }

// WithThreadCounts sets the thread counts tried per cell.
func WithThreadCounts(counts ...int) ExploreOption { return explore.WithThreadCounts(counts...) }

// Serving: the simulation-as-a-service daemon (internal/server), an
// HTTP/JSON API over the exploration engine with a bounded worker pool,
// singleflight deduplication of identical in-flight runs, and Prometheus
// metrics. cmd/wsd is the thin binary around it.

type (
	// Server is the daemon: an http.Handler plus the worker pool behind
	// it. Build one with NewServer, serve it with net/http, then Shutdown
	// to drain.
	Server = server.Server
	// ServerOption is a functional option for NewServer.
	ServerOption = server.Option
)

// NewServer builds and starts the simulation daemon. With no options it
// uses GOMAXPROCS workers, a 64-deep admission queue, a 60s request
// timeout and a fresh private cache. Options are validated eagerly
// (errors wrap ErrBadOptions).
//
//	srv, err := wavescalar.NewServer(
//		wavescalar.ServerJournal("wsd.jsonl", true), // warm restart
//		wavescalar.ServerCacheLimit(10000),
//	)
//	http.ListenAndServe(":8080", srv)
func NewServer(opts ...ServerOption) (*Server, error) { return server.New(opts...) }

// ServerWorkers sets the worker-pool size (default GOMAXPROCS).
func ServerWorkers(n int) ServerOption { return server.WithWorkers(n) }

// ServerQueueDepth bounds the admission queue; a full queue rejects new
// work with 429 (default 64).
func ServerQueueDepth(n int) ServerOption { return server.WithQueueDepth(n) }

// ServerRequestTimeout bounds how long a synchronous run request waits
// for its simulation (default 60s).
func ServerRequestTimeout(d time.Duration) ServerOption { return server.WithRequestTimeout(d) }

// ServerCacheLimit caps the daemon's result cache at n cells with LRU
// eviction.
func ServerCacheLimit(n int) ServerOption { return server.WithCacheLimit(n) }

// ServerJournal backs the daemon's cache with a JSONL journal; with
// resume set, existing records are replayed at startup.
func ServerJournal(path string, resume bool) ServerOption { return server.WithJournal(path, resume) }

// ServerParallelism sets how many simulations a sweep job runs
// concurrently (default GOMAXPROCS).
func ServerParallelism(n int) ServerOption { return server.WithParallelism(n) }

// ServerScenarioStore persists the scenario store to a JSONL file:
// created scenarios append as canonical JSON lines and reload at
// startup, so a warm restart still serves every stored digest.
func ServerScenarioStore(path string) ServerOption { return server.WithScenarioStore(path) }
