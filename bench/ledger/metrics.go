package main

// metricDef describes one reported metric. BENCHMARK.json at the root of
// the repository repeats the names, units and bounds; a test keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	count  bool    // per-layer only: exact and deterministic, identical on every run
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them from untraced rounds. A bound is twice the widest
// ten-run spread or set-to-set shift measured for the metric on any
// workload, rounded up to a twentieth and capped at the quarter the
// driver allows (README.md, "How the bounds were set").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.20},
	{name: "sim_kcycles_per_s", unit: "kcycles/s", better: "higher", bound: 0.20},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "mallocs/op", better: "lower", bound: 0.02},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
}

// perLayer is the ledger: one block per module, measured from outside by
// timing calls into its public functions. A workload that never enters a
// layer reports 0 for it.
var perLayer = []metricDef{
	// One simulation, split along workload.Build -> sim.New -> RunContext.
	{name: "workload.build_ms_per_op", unit: "ms", better: "lower"},
	{name: "place.place_ms_per_op", unit: "ms", better: "lower"},
	{name: "sim.new_ms_per_op", unit: "ms", better: "lower"},
	{name: "sim.construct_ms_per_op", unit: "ms", better: "lower"},
	{name: "sim.construct_mallocs_per_op", unit: "mallocs/op", better: "lower"},
	{name: "sim.run_ms_per_op", unit: "ms", better: "lower"},
	{name: "sim.run_share", unit: "fraction", better: "higher"},
	{name: "sim.ns_per_inst", unit: "ns", better: "lower"},
	{name: "sim.ns_per_cycle", unit: "ns", better: "lower"},
	{name: "sim.ns_per_input_attempt", unit: "ns", better: "lower"},
	{name: "sim.run_mallocs_per_kinst", unit: "mallocs/kinst", better: "lower"},
	{name: "sim.input_accept_ratio", unit: "fraction", better: "higher", count: true},
	{name: "sim.rejects_per_inst", unit: "1/inst", better: "lower", count: true},
	{name: "sim.aipc_geomean", unit: "inst/cycle", better: "higher", count: true},
	// Modelled components, from sim.Stats: a change that only speeds the
	// simulator up must leave every one of these identical.
	{name: "match.evictions_per_kinst", unit: "1/kinst", better: "lower", count: true},
	{name: "match.krejects_per_kinst", unit: "1/kinst", better: "lower", count: true},
	{name: "match.bankrejects_per_kinst", unit: "1/kinst", better: "lower", count: true},
	{name: "istore.miss_rate", unit: "fraction", better: "lower", count: true},
	{name: "storebuf.psq_stalls_per_kinst", unit: "1/kinst", better: "lower", count: true},
	{name: "cache.l1_miss_rate", unit: "fraction", better: "lower", count: true},
	{name: "cache.l2_miss_rate", unit: "fraction", better: "lower", count: true},
	{name: "noc.msgs_per_kinst", unit: "1/kinst", better: "lower", count: true},
	{name: "noc.avg_hops", unit: "hops", better: "lower", count: true},
	{name: "noc.blocked_per_kmsg", unit: "1/kmsg", better: "lower", count: true},
	{name: "sim.operand_lat_avg", unit: "cycles", better: "lower", count: true},
	{name: "sim.mem_lat_avg", unit: "cycles", better: "lower", count: true},
	// internal/design and internal/explore around the simulator.
	{name: "design.best_threads_ms_per_cell", unit: "ms", better: "lower"},
	{name: "design.sims_per_cell", unit: "sims/cell", better: "lower", count: true},
	{name: "explore.cellkey_us", unit: "us", better: "lower"},
	{name: "explore.cache_put_us", unit: "us", better: "lower"},
	{name: "explore.cache_hit_us", unit: "us", better: "lower"},
	{name: "explore.journal_bytes_per_cell", unit: "bytes/cell", better: "lower", count: true},
	{name: "explore.replay_us_per_cell", unit: "us", better: "lower"},
	{name: "explore.warm_sweep_us_per_cell", unit: "us", better: "lower"},
	{name: "explore.batched_frac", unit: "fraction", better: "higher", count: true},
	{name: "explore.overhead_frac", unit: "fraction", better: "lower"},
	// internal/server and internal/scenario around that.
	{name: "server.handler_us_p50", unit: "us", better: "lower"},
	{name: "server.http_us_p50", unit: "us", better: "lower"},
	{name: "server.transport_share", unit: "fraction", better: "lower"},
	{name: "server.refuse_us_p50", unit: "us", better: "lower"},
	{name: "server.metrics_scrape_us_p50", unit: "us", better: "lower"},
	{name: "server.resp_bytes_p50", unit: "bytes", better: "lower"},
	{name: "server.warm_restart_ms", unit: "ms", better: "lower"},
	{name: "server.cold_overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "server.singleflight_sims_per_req", unit: "sims/req", better: "lower", count: true},
	{name: "scenario.parse_us", unit: "us", better: "lower"},
	{name: "scenario.digest_us", unit: "us", better: "lower"},
	// The only reference the repository holds is internal/ref, a
	// functional interpreter: instruction counts are checked against it,
	// and no error against hardware is claimed.
	{name: "ref.countable_mismatches", unit: "count", better: "lower", count: true},
	{name: "ref.interp_kinst_per_s", unit: "kinst/s", better: "higher"},
	// Diagnostics of the run itself.
	{name: "run.rounds", unit: "count", better: "higher"},
	{name: "run.kept_rounds", unit: "count", better: "higher"},
	{name: "run.ops", unit: "count", better: "higher"},
	{name: "run.round_spread", unit: "fraction", better: "lower"},
	{name: "run.all_rounds_ops_per_s", unit: "ops/s", better: "higher"},
	{name: "run.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "run.gc_cycles", unit: "count", better: "lower"},
	{name: "run.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "run.host_calib_ms", unit: "ms", better: "lower"},
	{name: "run.host_mem_calib_ms", unit: "ms", better: "lower"},
	{name: "run.trace_overhead_frac", unit: "fraction", better: "lower"},
}
