package main

// metric declares one reported number. BENCHMARK.json carries the same
// declarations for the acceptance driver; the self-test keeps the two
// equal.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// e2eMetrics are what a user of either plane sees. Every workload
// reports all of them; the workload's unit operation and request say
// what is counted and what one latency sample spans.
var e2eMetrics = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_us_p50", "us", "lower"},
	{"op_us_p90", "us", "lower"},
}

// layerMetrics are the per-layer metrics of a traced run, layer =
// module name. Their time units name the clock: host_* is wall time on
// this machine, sim_* the simulation's virtual time. The sim_* metrics
// and the counts marked exact in README.md repeat bit-for-bit.
var layerMetrics = []metric{
	{"api.call_us_p50", "host_us", "lower"},
	{"api.poll_calls_per_op", "count", "lower"},
	{"api.resp_bytes_per_op", "bytes", "lower"},
	{"api.deploy_ms_p50", "host_ms", "lower"},
	{"api.deploy_ms_p90", "host_ms", "lower"},
	{"api.upgrade_ms_p50", "host_ms", "lower"},
	{"api.upgrade_ms_p90", "host_ms", "lower"},
	{"api.uninstall_ms_p50", "host_ms", "lower"},
	{"api.uninstall_ms_p90", "host_ms", "lower"},
	{"api.read_us_p50", "host_us", "lower"},

	{"federation.route_us_p50", "host_us", "lower"},
	{"federation.getop_us_p50", "host_us", "lower"},
	{"federation.shard_calls_per_op", "count", "lower"},
	{"federation.owner_ns", "host_ns", "lower"},
	{"federation.partition_us", "host_us", "lower"},
	{"federation.shard_imbalance", "ratio", "lower"},

	{"server.launch_us_p50", "host_us", "lower"},
	{"server.plan_us", "host_us", "lower"},
	{"server.verify_us", "host_us", "lower"},
	{"server.first_push_ms_p50", "host_ms", "lower"},
	{"server.settle_lag_ms_p50", "host_ms", "lower"},
	{"server.pushes_per_vehicle_op", "count", "lower"},
	{"server.statz_us", "host_us", "lower"},
	{"server.ops_drift_ratio", "ratio", "higher"},

	{"journal.records_per_vehicle_op", "count", "lower"},
	{"journal.commits_per_kvehicle_op", "count", "lower"},
	{"journal.records_per_commit", "count", "higher"},
	{"journal.bytes_per_vehicle_op", "bytes", "lower"},
	{"journal.append_wait_us_p50_c1", "host_us", "lower"},
	{"journal.append_wait_us_p50_c64", "host_us", "lower"},
	{"journal.recover_ms_per_krecord", "host_ms", "lower"},
	{"journal.snapshots", "count", "lower"},
	{"journal.ship_calls_per_commit", "count", "lower"},
	{"journal.ship_us_p50", "host_us", "lower"},
	{"journal.apply_us_p50", "host_us", "lower"},
	{"journal.follower_lag_bytes_max", "bytes", "lower"},
	{"journal.resyncs", "count", "lower"},
	{"journal.replica_gap_bytes_end", "bytes", "lower"},

	{"core.push_frame_bytes", "bytes", "lower"},
	{"core.codec_ns_per_frame", "host_ns", "lower"},
	{"verify.bytecode_us", "host_us", "lower"},
	{"verify.optimize_us", "host_us", "lower"},
	{"verify.plan_us", "host_us", "lower"},
	{"plugin.pkg_marshal_ns", "host_ns", "lower"},
	{"plugin.pkg_unmarshal_ns", "host_ns", "lower"},

	{"vehicle.sim_us_per_msg", "sim_us", "lower"},
	{"vehicle.sim_ms_per_install", "sim_ms", "lower"},
	{"ecm.install_host_us", "host_us", "lower"},
	{"ecm.sim_ms_install_local", "sim_ms", "lower"},
	{"ecm.sim_ms_install_remote", "sim_ms", "lower"},
	{"com.tp_frames_per_install", "count", "lower"},
	{"com.tp_host_us_per_kib", "host_us", "lower"},
	{"com.signal_ns", "host_ns", "lower"},
	{"com.can_share_of_install_pct", "%", "lower"},
	{"can.frames_per_msg", "count", "lower"},
	{"can.sim_us_on_bus_per_msg", "sim_us", "lower"},
	{"can.host_ns_per_frame", "host_ns", "lower"},
	{"can.bus_load", "ratio", "lower"},
	{"pirte.deliver_ns_type1", "host_ns", "lower"},
	{"pirte.deliver_ns_type2", "host_ns", "lower"},
	{"pirte.deliver_ns_type3", "host_ns", "lower"},
	{"pirte.peer_link_ns", "host_ns", "lower"},
	{"pirte.install_us", "host_us", "lower"},
	{"pirte.upgrade_swap_us", "host_us", "lower"},
	{"pirte.replay_msgs_per_s", "1/s", "higher"},
	{"pirte.allocs_per_msg", "count", "lower"},
	{"pirte.vport_drops", "count", "lower"},
	{"vm.ns_per_activation_echo", "host_ns", "lower"},
	{"vm.ns_per_kinstr", "host_ns", "lower"},
	{"vm.instr_per_activation", "count", "lower"},
	{"vm.native_ratio", "ratio", "lower"},
	{"vm.decode_us", "host_us", "lower"},
	{"vm.share_of_op_pct", "%", "lower"},
	{"rte.write_ns", "host_ns", "lower"},
	{"bsw.nvm_persist_us", "host_us", "lower"},
	{"sim.events_per_op", "count", "lower"},
	{"sim.host_ns_per_event", "host_ns", "lower"},

	{"bench.cpu_us_per_op", "host_us", "lower"},
	{"bench.heap_inuse_mb_end", "MiB", "lower"},
	{"bench.goroutines_peak", "count", "lower"},
	{"bench.tracing_overhead_pct", "%", "lower"},
	{"bench.rep_iqr_pct.setup_s", "%", "lower"},
	{"bench.rep_iqr_pct.ops_per_s", "%", "lower"},
	{"bench.rep_iqr_pct.op_us_p50", "%", "lower"},
	{"bench.rep_iqr_pct.op_us_p90", "%", "lower"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
