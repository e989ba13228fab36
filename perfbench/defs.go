package main

// metricDef names one reported metric. Moves and On record, for a per-layer
// metric, the end-to-end metric it should move and the workload it should
// move it on; a change that claims a gain on one layer is checked against
// this table.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves,omitempty"`
	On     string `json:"on,omitempty"`
}

// e2eDefs are the end-to-end metrics, measured with tracing off. An op is
// one simulation run. Times are process CPU time scaled to the reference
// host speed (calib.go), not wall time: on the shared host the benchmark
// runs on, wall time mostly measures how much CPU the other guests leave it
// (README.md).
var e2eDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ref_cpu_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ref_cpu_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "ref_cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "rx_per_ref_cpu_s", Unit: "rx/s", Better: "higher"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
}

const (
	onSim     = "spr-field, secmlr-rounds"
	onDormant = "all (guards dormant cost)"
	// The service layer is measured by the traced pass's probe; the
	// wmsnd-jobs workload whose latency it should move was dropped as
	// unsteady (README.md).
	onService = "service probe of every traced pass"
)

// layerDefs are the per-layer metrics of the traced pass.
var layerDefs = []metricDef{
	{"scenario.build_ms", "ms", "lower", "setup_s, ref_cpu_ms_p50", wlSweepFaults},
	{"scenario.traffic_ms", "ms", "lower", "ref_cpu_ms_p50", wlSweepFaults},

	{"sim.events_per_op", "count", "lower", "rx_per_ref_cpu_s", wlSPRField},
	{"sim.ns_per_event", "ns", "lower", "rx_per_ref_cpu_s", wlSPRField},
	{"sim.rung_ns_per_event", "ns", "lower", "rx_per_ref_cpu_s", wlSPRField},
	{"sim.rung_allocs_per_event", "count", "lower", "rx_per_ref_cpu_s", wlSPRField},

	{"radio.tx_per_op", "count", "lower", "allocs_per_op, ref_cpu_ms_per_op", onSim},
	{"radio.rx_per_op", "count", "lower", "allocs_per_op, ref_cpu_ms_per_op", onSim},
	{"radio.fanout", "rx/tx", "lower", "allocs_per_op, ref_cpu_ms_per_op", onSim},
	{"radio.lost_per_op", "count", "lower", "allocs_per_op, ref_cpu_ms_per_op", onSim},
	{"radio.rung_ns_per_rx", "ns", "lower", "ref_cpu_ms_per_op", onSim},
	{"radio.rung_allocs_per_rx", "count", "lower", "allocs_per_op", onSim},
	{"radio.rung_bytes_per_rx", "B", "lower", "alloc_mb_per_op", onSim},

	{"core.handle_calls_per_op", "count", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_ns_per_call", "ns", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_share", "share", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_share.rreq", "share", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_share.rres", "share", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_share.data", "share", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_share.notify", "share", "lower", "ref_cpu_ms_p50", wlSecMLRRounds},
	{"core.handle_share.ack", "share", "lower", "ref_cpu_ms_p50", wlSecMLRRounds},
	{"core.handle_share.hello", "share", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_calls.rreq", "count", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_calls.rres", "count", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_calls.data", "count", "lower", "ref_cpu_ms_p50", onSim},
	{"core.handle_calls.notify", "count", "lower", "ref_cpu_ms_p50", wlSecMLRRounds},
	{"core.handle_calls.ack", "count", "lower", "ref_cpu_ms_p50", wlSecMLRRounds},
	{"core.handle_calls.hello", "count", "lower", "ref_cpu_ms_p50", onSim},
	{"core.reroutes_per_op", "count", "lower", "ref_cpu_ms_p50", onSim},
	{"core.dispatch_self_ms", "ms", "lower", "ref_cpu_ms_p50", onSim},

	{"wsncrypto.rung_sum_ns", "ns", "lower", "ref_cpu_ms_per_op", wlSecMLRRounds + "; no change on " + wlSPRField},
	{"wsncrypto.rung_verify_ns", "ns", "lower", "ref_cpu_ms_per_op", wlSecMLRRounds + "; no change on " + wlSPRField},
	{"wsncrypto.rung_allocs_per_sum", "count", "lower", "ref_cpu_ms_per_op", wlSecMLRRounds + "; no change on " + wlSPRField},

	{"node.arq.tx_per_op", "count", "lower", "ref_cpu_ms_per_op", wlSweepFaults},
	{"node.arq.retry_per_op", "count", "lower", "ref_cpu_ms_per_op", wlSweepFaults},
	{"node.arq.ack_ratio", "share", "higher", "ref_cpu_ms_per_op", wlSweepFaults},
	{"node.arq.queue_drops_per_op", "count", "lower", "ref_cpu_ms_per_op", wlSweepFaults},
	{"fault.injected_per_op", "count", "lower", "ref_cpu_ms_per_op", wlSweepFaults},
	{"attack.dropped_per_op", "count", "lower", "ref_cpu_ms_per_op", wlSweepFaults},
	{"attack.injected_per_op", "count", "lower", "ref_cpu_ms_per_op", wlSweepFaults},

	{"metrics.rung_record_ns", "ns", "lower", "none with tracing off", onDormant},
	{"metrics.rung_allocs_per_record", "count", "lower", "none with tracing off", onDormant},
	{"obs.events_per_op", "count", "lower", "none with tracing off", onDormant},
	{"obs.trace_overhead", "share", "lower", "none with tracing off", onDormant},

	{"runner.cpu_utilization", "share", "higher", "none: the measured loop runs one worker", wlSweepFaults},

	{"service.submit_ms_p50", "ms", "lower", "wmsnd job latency (no workload)", onService},
	{"service.queue_wait_ms_p50", "ms", "lower", "wmsnd job latency (no workload)", onService},
	{"service.overhead_ms_p50", "ms", "lower", "wmsnd job latency (no workload)", onService},
	{"service.rejected", "count", "lower", "wmsnd job latency (no workload)", onService},
	{"service.backlog_max", "count", "lower", "wmsnd job latency (no workload)", onService},
	{"service.generator_lag_ms_max", "ms", "lower", "wmsnd job latency (no workload)", onService},
	{"service.stream_bytes_per_job", "B", "lower", "wmsnd job latency (no workload)", onService},

	{"runtime.allocs_per_rx", "count", "lower", "ref_cpu_ms_per_op, alloc_mb_per_op", onSim},
	{"runtime.bytes_per_rx", "B", "lower", "ref_cpu_ms_per_op, alloc_mb_per_op", onSim},
	{"runtime.gc_cycles_per_op", "count", "lower", "ref_cpu_ms_per_op, alloc_mb_per_op", onSim},
	{"runtime.gc_cpu_share", "share", "lower", "ref_cpu_ms_per_op, alloc_mb_per_op", onSim},
}
