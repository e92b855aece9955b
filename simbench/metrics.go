package main

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// lists them.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports: host cost of the
// simulation as a user running it sees it. Lower is better for all.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
}

// The layer kinds the traced run decorates.
var (
	schedKinds  = []string{"dwrr", "wfq"}
	markerKinds = []string{"pmsb", "per-port", "mq-ecn", "tcn"}
)

// busyMetrics are the layer busy times measured inside the run phase;
// other.self_s is the traced run_s minus their sum.
var busyMetrics = buildBusyMetrics()

func buildBusyMetrics() []string {
	b := []string{"obs.write_s"}
	for _, k := range schedKinds {
		b = append(b, "sched."+k+".busy_s")
	}
	for _, k := range markerKinds {
		b = append(b, "marker."+k+".busy_s")
	}
	return b
}

// perLayer are the metrics a --trace 1 run reports. A metric of a layer
// a workload does not load reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.pending_hiwater", "count"},
		{"sim.queue_grows", "count"},
		{"sim.queue_shrinks", "count"},
		{"sim.queue_migrations", "count"},
		{"pdes.grants", "count"},
		{"pdes.handoffs", "count"},
		{"pdes.parked", "count"},
		{"pdes.null_rounds", "count"},
		{"pdes.busy_s", "s"},
		{"pdes.blocked_s", "s"},
		{"pdes.idle_s", "s"},
		{"pdes.imbalance", "ratio"},
		{"topo.build_s", "s"},
		{"topo.bytes_per_port", "B"},
		{"topo.arena_overflow", "count"},
		{"workload.gen_s", "s"},
		{"workload.flows", "count"},
		{"transport.new_flow_s", "s"},
		{"transport.retransmits", "count"},
		{"transport.retx_per_flow", "ratio"},
		{"transport.marks_seen", "count"},
		{"transport.marks_accepted", "count"},
		{"transport.accept_ratio", "ratio"},
		{"netsim.tx_pkts", "count"},
		{"netsim.drops", "count"},
		{"netsim.marks", "count"},
		{"netsim.mark_ratio", "ratio"},
		{"netsim.pkts_per_event", "ratio"},
		{"netsim.depth_p99_pkts", "pkts"},
	}
	for _, k := range schedKinds {
		m = append(m,
			metricDef{"sched." + k + ".ops", "count"},
			metricDef{"sched." + k + ".busy_s", "s"},
			metricDef{"sched." + k + ".ns_per_op", "ns"})
	}
	for _, k := range markerKinds {
		p := "marker." + k
		m = append(m,
			metricDef{p + ".decisions", "count"},
			metricDef{p + ".marks", "count"},
			metricDef{p + ".mark_ratio", "ratio"},
			metricDef{p + ".busy_s", "s"},
			metricDef{p + ".ns_per_decision", "ns"})
	}
	return append(m,
		metricDef{"pkt.gets", "count"},
		metricDef{"pkt.inuse_hiwater", "count"},
		metricDef{"obs.events", "count"},
		metricDef{"obs.bytes_per_event", "B"},
		metricDef{"obs.write_s", "s"},
		metricDef{"obs.record_s", "s"},
		metricDef{"obs.reduce_s", "s"},
		metricDef{"obs.decode_mevents_per_s", "Mevents/s"},
		metricDef{"flowsim.events", "count"},
		metricDef{"flowsim.quantum_us", "us"},
		metricDef{"flowsim.ns_per_flow", "ns"},
		metricDef{"other.self_s", "s"},
		metricDef{"traced.run_s", "s"},
		metricDef{"traced.overhead", "ratio"},
		metricDef{"trace_mb", "MiB"},
		metricDef{"analyze_s", "s"},
		metricDef{"fct_err_p50", "ratio"},
		metricDef{"fct_err_p99", "ratio"},
		metricDef{"flows_failed", "ratio"},
	)
}
