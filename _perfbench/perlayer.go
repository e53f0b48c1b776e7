package main

import "repro/internal/lint"

type metricName struct{ name, unit string }

// perLayer lists every metric a traced run reports, in the order of the
// layers they belong to. Each traced run prints all of them; a layer the
// workload does not touch reports 0.
func perLayer() []metricName {
	m := []metricName{
		{"core.build_s", "s"},
		{"core.cells", "count"},
		{"core.construct_s", "s"},
		{"core.verify_s", "s"},
		{"schedcache.hit_ratio", "1"},
		{"schedcache.constructions", "count"},
		{"schedcache.evictions", "count"},
		{"topology.build_s", "s"},
		{"sim.kernel_build_s", "s"},
		{"sim.saturation_s", "s"},
		{"sim.node_slots", "count"},
		{"sim.convergecast_s", "s"},
		{"sim.convergecast_gc_frac", "1"},
		{"sim.convergecast_alloc_mb", "MB"},
		{"sim.shard_speedup", "x"},
		{"engine.job_ms.p50", "ms"},
		{"engine.job_ms.p99", "ms"},
		{"engine.busy_frac", "1"},
		{"engine.inner_wait_s", "s"},
		{"engine.gc_cpu_frac", "1"},
		{"engine.journal_append_us", "us"},
		{"engine.journal_bytes", "B"},
		{"serve.artifact_hit_ratio", "1"},
		{"serve.artifact_evictions", "count"},
		{"serve.artifact_build_ms", "ms"},
		{"serve.not_modified_ratio", "1"},
		{"serve.jobs_accepted", "count"},
		{"serve.jobs_refused", "count"},
		{"shard.forward_ratio", "1"},
		{"shard.hop_ms", "ms"},
		{"shard.local_fallbacks", "count"},
		{"shard.loop_rejects", "count"},
		{"wire.encode_us", "us"},
		{"wire.decode_us", "us"},
		{"wire.frame_bytes", "B"},
		{"lint.load_s", "s"},
		{"lint.program_s", "s"},
	}
	for _, a := range lint.All() {
		m = append(m, metricName{"lint.analyzer_s." + a.Name, "s"})
	}
	m = append(m,
		metricName{"lint.packages", "count"},
		metricName{"lint.findings", "count"},
		metricName{"runtime.gc_cpu_frac", "1"},
		metricName{"runtime.alloc_mb", "MB"},
		metricName{"runtime.allocs", "count"},
	)
	for _, step := range fleetSteps {
		m = append(m,
			metricName{"fleet.p50_ms." + step.name, "ms"},
			metricName{"fleet.p99_ms." + step.name, "ms"},
			metricName{"fleet.samples." + step.name, "count"},
			metricName{"loadgen.lag_ms." + step.name, "ms"},
		)
	}
	return append(m,
		metricName{"failed_frac", "1"},
		metricName{"traced.setup_s", "s"},
		metricName{"traced.wall_s", "s"},
		metricName{"traced.ops_per_s", "1/s"},
	)
}
