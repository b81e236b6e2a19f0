package main

// metricDef names one reported metric. The two tables below are the
// benchmark's contract with BENCHMARK.json: every name there is printed
// here, with the same unit, and perfbench_test.go checks that the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"; empty for per-layer metrics
	// Host marks a measured host cost. Every other metric is a count or a
	// virtual-time result of the model, which repeats exactly for a seed.
	Host bool
}

// endToEnd lists what a user of the simulator sees, printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", true},
	{"wall_s", "s", "lower", true},
	{"alloc_mb", "MB", "lower", true},
	{"retained_mb", "MB", "lower", true},
	{"ok_frac", "ratio", "higher", false},
	{"vexec_ms", "ms", "lower", false},
	{"efficiency", "ratio", "higher", false},
}

// perLayer lists the per-layer costs and counts, printed with -trace 1.
// A metric of a layer the workload does not use reads 0.
var perLayer = []metricDef{
	{"workload.hash_ns_per_node", "ns", "", true},
	{"workload.memo_fill_s", "s", "", true},
	{"workload.gen_s", "s", "", true},
	{"sim.events", "count", "", false},
	{"sim.handoffs", "count", "", false},
	{"sim.callbacks", "count", "", false},
	{"sim.callback_frac", "ratio", "", false},
	{"sim.ns_per_event", "ns", "", true},
	{"sim.handoff_ns", "ns", "", true},
	{"sim.callback_ns", "ns", "", true},
	{"core.run_s", "s", "", true},
	{"core.tasks", "count", "", false},
	{"core.steals_ok", "count", "", false},
	{"core.steals_fail", "count", "", false},
	{"core.steal_success", "ratio", "", false},
	{"core.steal_latency_us", "us", "", false},
	{"core.outstanding_joins", "count", "", false},
	{"core.oj_wait_us", "us", "", false},
	{"core.migrations", "count", "", false},
	{"core.sojourn_p50_us", "us", "", false},
	{"core.sojourn_p999_us", "us", "", false},
	{"core.slo_frac", "ratio", "", false},
	{"core.trace_events", "count", "", false},
	{"deque.trace_events", "count", "", false},
	{"rdma.trace_events", "count", "", false},
	{"rdma.remote_ops", "count", "", false},
	{"rdma.bytes_mb", "MB", "", false},
	{"rdma.remote_time_ms", "ms", "", false},
	{"remobj.trace_events", "count", "", false},
	{"remobj.remote_frees", "count", "", false},
	{"remobj.reclaimed", "count", "", false},
	{"uniaddr.trace_events", "count", "", false},
	{"uniaddr.moves", "count", "", false},
	{"uniaddr.bytes_mb", "MB", "", false},
	{"bot.run_s", "s", "", true},
	{"bot.tasks", "count", "", false},
	{"bot.steal_success", "ratio", "", false},
	{"bot.msgs", "count", "", false},
	{"bot.sojourn_p999_us", "us", "", false},
	{"obs.events", "count", "", false},
	{"obs.overhead_s", "s", "", true},
	{"obs.record_ns_per_event", "ns", "", true},
	{"obs.attribution_s", "s", "", true},
	{"experiments.self_s", "s", "", true},
	{"bench.trace_overhead_s", "s", "", true},
	{"share.workload", "ratio", "", true},
	{"share.sim", "ratio", "", true},
	{"share.core", "ratio", "", true},
	{"share.bot", "ratio", "", true},
	{"share.obs", "ratio", "", true},
	{"share.experiments", "ratio", "", true},
	{"host.peak_live_heap_mb", "MB", "", true},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns named values into the printed map, with units from defs. It
// panics on a name missing from vals: every metric of the table must be
// produced, so a gap is a bug in this program.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("perfbench: metric " + d.Name + " was not computed")
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}
