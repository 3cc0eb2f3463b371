package main

// metricDef names one reported metric. For per-layer metrics, most and
// least name the workloads predicted to load that layer most and least,
// and moves names the end-to-end metrics the layer metric should move;
// the traced run prints them beside the measured values so the workload
// design can be checked against measurement.
type metricDef struct {
	name, unit, better string
	most, least, moves string
}

// endToEnd lists the metrics of an untraced run. Host metrics are medians
// over the run's rounds; sim_* metrics are simulated and repeat exactly
// for a seed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "req_per_host_s", unit: "req/s", better: "higher"},
	{name: "host_allocs_per_req", unit: "count", better: "lower"},
	{name: "host_bytes_per_req", unit: "B", better: "lower"},
	{name: "heap_live_mb", unit: "MB", better: "lower"},
	{name: "sim_goodput_rps", unit: "req/s", better: "higher"},
	{name: "sim_p50_us", unit: "us", better: "lower"},
	{name: "sim_p999_us", unit: "us", better: "lower"},
	{name: "sim_server_cy_per_req", unit: "cycles", better: "lower"},
}

const (
	kvAll    = "kv-twitter, kv-ycsb-copy"
	allWl    = "all"
	rpcFan   = "rpc-fanout"
	ycsb     = "kv-ycsb-copy"
	twitter  = "kv-twitter"
	hostRate = "req_per_host_s"
)

// perLayer lists the metrics of a traced run.
var perLayer = []metricDef{
	{"sim.self_share", "fraction", "lower", rpcFan, kvAll, hostRate},
	{"sim.events_per_req", "count", "lower", rpcFan, kvAll, hostRate},
	{"sim.host_ns_per_event", "ns", "lower", rpcFan, kvAll, hostRate},
	{"sim.server_util", "fraction", "lower", rpcFan, kvAll, "sim_p999_us"},
	{"sim.queue_wait_ns", "ns", "lower", rpcFan, kvAll, "sim_p999_us"},

	{"cachesim.self_share", "fraction", "lower", ycsb, rpcFan, hostRate},
	{"cachesim.accesses_per_req", "count", "lower", ycsb, rpcFan, hostRate},
	{"cachesim.l1_hit_ratio", "fraction", "higher", ycsb, rpcFan, "sim_server_cy_per_req, sim_p50_us"},
	{"cachesim.l3_misses_per_req", "count", "lower", ycsb, rpcFan, "sim_server_cy_per_req, sim_p50_us"},

	{"mem.self_share", "fraction", "lower", twitter, ycsb, hostRate},
	{"mem.allocs_per_req", "count", "lower", twitter, ycsb, hostRate},
	{"mem.recover_per_req", "count", "lower", twitter, ycsb, hostRate},
	{"mem.recover_hit_ratio", "fraction", "higher", twitter, ycsb, hostRate},
	{"mem.pinned_mb", "MB", "lower", kvAll, rpcFan, "heap_live_mb, setup_s"},

	{"core.self_share", "fraction", "lower", "kv-twitter, rpc-fanout", ycsb + " (zero)", hostRate},
	{"baselines.self_share", "fraction", "lower", ycsb, "others (zero)", hostRate},

	{"costmodel.self_share", "fraction", "lower", allWl, allWl, hostRate},
	{"costmodel.rx_cy_per_req", "cycles", "lower", rpcFan, kvAll, "sim_server_cy_per_req, sim_p50_us"},
	{"costmodel.deserialize_cy_per_req", "cycles", "lower", rpcFan, kvAll, "sim_server_cy_per_req, sim_p50_us"},
	{"costmodel.app_cy_per_req", "cycles", "lower", rpcFan, kvAll, "sim_server_cy_per_req, sim_p50_us"},
	{"costmodel.serialize_cy_per_req", "cycles", "lower", "kv-ycsb-copy, rpc-fanout", twitter, "sim_server_cy_per_req, sim_p50_us"},
	{"costmodel.tx_cy_per_req", "cycles", "lower", rpcFan, kvAll, "sim_server_cy_per_req, sim_p50_us"},

	{"nic.self_share", "fraction", "lower", rpcFan, kvAll, hostRate},
	{"nic.frames_per_req", "count", "lower", rpcFan, kvAll, hostRate},
	{"nic.doorbells_per_frame", "count", "lower", rpcFan, kvAll, hostRate},
	{"nic.dropped_frames", "count", "lower", rpcFan, kvAll, hostRate},
	{"nic.sg_entries_per_frame", "count", "lower", twitter, ycsb, hostRate},

	{"netstack.self_share", "fraction", "lower", "rpc-fanout, kv-twitter", ycsb, "req_per_host_s, failed_frac"},
	{"netstack.zc_entries_per_req", "count", "lower", "rpc-fanout, kv-twitter", ycsb, "req_per_host_s, failed_frac"},
	{"netstack.rx_drops", "count", "lower", "rpc-fanout, kv-twitter", ycsb, "req_per_host_s, failed_frac"},

	{"fabric.self_share", "fraction", "lower", rpcFan, kvAll + " (absent)", "req_per_host_s, sim_p999_us"},
	{"fabric.frames_per_req", "count", "lower", rpcFan, kvAll + " (absent)", "req_per_host_s, sim_p999_us"},
	{"fabric.contention_ns_per_frame", "ns", "lower", rpcFan, kvAll + " (absent)", "req_per_host_s, sim_p999_us"},
	{"fabric.egress_drops", "count", "lower", rpcFan, kvAll + " (absent)", "req_per_host_s, sim_p999_us"},
	{"fabric.max_backlog", "count", "lower", rpcFan, kvAll + " (absent)", "req_per_host_s, sim_p999_us"},

	{"rpc.self_share", "fraction", "lower", rpcFan, kvAll + " (absent)", "req_per_host_s, sim_p999_us"},
	{"rpc.child_calls_per_req", "count", "lower", rpcFan, kvAll + " (absent)", "req_per_host_s, sim_p999_us"},
	{"rpc.late_child_replies", "count", "lower", rpcFan, kvAll + " (absent)", "req_per_host_s, sim_p999_us"},

	{"driver.build_s", "s", "lower", rpcFan, kvAll, "setup_s"},
	{"driver.preload_s", "s", "lower", kvAll, rpcFan + " (zero)", "setup_s"},
	{"driver.self_share", "fraction", "lower", allWl, allWl, "req_per_host_s, failed_frac"},
	{"driver.shed", "count", "lower", allWl, allWl, "req_per_host_s, failed_frac"},

	{"kvstore.self_share", "fraction", "lower", kvAll + " (puts: kv-twitter)", rpcFan, hostRate},

	{"loadgen.run_s", "s", "lower", allWl, allWl, "req_per_host_s, failed_frac"},
	{"loadgen.self_share", "fraction", "lower", allWl, allWl, "req_per_host_s, failed_frac"},
	{"loadgen.client_build_ns", "ns", "lower", allWl, allWl, "req_per_host_s, failed_frac"},
	{"loadgen.client_parse_ns", "ns", "lower", allWl, allWl, "req_per_host_s, failed_frac"},
	{"loadgen.retries", "count", "lower", allWl, allWl, "req_per_host_s, failed_frac"},
	{"loadgen.timeouts", "count", "lower", allWl, allWl, "req_per_host_s, failed_frac"},

	{"workloads.gen_s", "s", "lower", twitter, rpcFan, "setup_s"},
	{"workloads.next_ns", "ns", "lower", allWl, allWl, hostRate},

	{"runtime.self_share", "fraction", "lower", rpcFan, kvAll, "req_per_host_s, host_allocs_per_req"},
	{"runtime.gc_cycles", "count", "lower", rpcFan, kvAll, "req_per_host_s, host_allocs_per_req"},
	{"runtime.gc_cpu_share", "fraction", "lower", rpcFan, kvAll, "req_per_host_s, host_allocs_per_req"},

	{"bench.trace_overhead_frac", "ratio", "lower", allWl, allWl, "none"},
}

// profiledLayers are the packages whose self_share the traced run reports
// from the CPU profile.
var profiledLayers = []string{
	"sim", "cachesim", "mem", "core", "baselines", "costmodel", "nic",
	"netstack", "fabric", "rpc", "driver", "kvstore", "loadgen", "runtime",
}
