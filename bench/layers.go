package main

// layerMetrics is every per-layer metric the traced pass prints, in
// BENCHMARK.json's order, named <layer>.<what> with this repository's
// packages as the layers. README.md says for each which end-to-end
// metric it should move on which workload.
var layerMetrics = []struct{ name, unit string }{
	{"workload.next_us_per_job", "us"},
	{"workload.next_calls_per_job", "count"},
	{"workload.generate_ms", "ms"},

	{"simkit.events_per_job", "count"},
	{"simkit.event_probe_ns", "ns"},

	{"cluster.nodes", "count"},
	{"cluster.online_avg", "count"},
	{"cluster.counts_probe_us", "us"},
	{"cluster.append_online_probe_us", "us"},

	{"core.rounds_per_job", "count"},
	{"core.schedule_us_per_job", "us"},
	{"core.schedule_p50_us", "us"},
	{"core.schedule_p99_us", "us"},
	{"core.score_evals_per_job", "count"},
	{"core.moves_per_job", "count"},
	{"core.col_refreshes_per_job", "count"},
	{"core.reused_cells_ratio", "ratio"},
	{"core.actions_per_job", "count"},
	{"core.plan_probe_us", "us"},

	{"datacenter.new_ms", "ms"},
	{"datacenter.run_us_per_job", "us"},
	{"datacenter.self_us_per_job", "us"},
	{"datacenter.ticks_per_job", "count"},
	{"datacenter.migrations_per_job", "count"},
	{"datacenter.failures", "count"},

	{"fleet.admit_turns_per_job", "count"},
	{"fleet.admit_us_per_job", "us"},
	{"fleet.admit_self_us_per_job", "us"},
	{"fleet.merged_requests_per_turn", "count"},
	{"fleet.solver_round_us_per_job", "us"},
	{"fleet.shed_total", "count"},
	{"fleet.wal_flushes_per_job", "count"},
	{"fleet.wal_us_per_job", "us"},
	{"fleet.wal_bytes_per_job", "B"},
	{"fleet.recover_ms", "ms"},
	{"fleet.recover_us_per_record", "us"},

	{"server.start_ms", "ms"},
	{"server.http_submit_us_per_job", "us"},
	{"server.http_submit_self_us_per_job", "us"},
	{"server.http_read_us_per_call", "us"},
	{"server.reads_per_job", "count"},
	{"server.coalesce_shared_ratio", "ratio"},

	{"client.submit_p50_us", "us"},
	{"client.submit_p99_us", "us"},
	{"client.read_p50_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.overhead_us_per_submit", "us"},
	{"client.conflicts_409", "count"},
	{"client.throttled_429", "count"},

	{"runtime.ref_factor", "ratio"},
	{"runtime.ref_probe_ms", "ms"},
	{"runtime.job_wall_us_raw", "us"},
	{"runtime.gc_cycles_per_kjob", "count"},
	{"runtime.gc_pause_us_per_job", "us"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.trace_overhead_ratio", "ratio"},
}
