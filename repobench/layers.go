package main

// traceLayers are the layers a traced run attributes self time to. Time
// in no layer — the benchmark's own checks and a client's idle time — is
// reported as trace.unattributed_frac.
var traceLayers = []string{
	"load", "profile", "core", "trident", "fault",
	"server.http", "server.queue", "server.run",
}

// perLayerUnits lists every per-layer metric a traced run reports, with
// its unit, in addition to the per-kernel families added by
// layerMetrics. A layer the workload does not exercise reports 0.
var perLayerUnits = [][2]string{
	{"load.build_ms", "ms"},
	{"profile.collect_ms", "ms"},
	{"profile.dyn_instrs", "count"},
	{"profile.mem_edges", "count"},
	{"core.new_ms", "ms"},
	{"core.instr_ms", "ms"},
	{"core.fs_ms_est", "ms"},
	{"core.fc_ms_est", "ms"},
	{"core.fm_ms_est", "ms"},
	{"core.fm_iterations", "count"},
	{"core.targets", "count"},
	{"core.unstable_kernels", "count"},
	{"analysis.cfg_ms", "ms"},
	{"interp.golden_ms", "ms"},
	{"decoded.compile_ms", "ms"},
	{"interp.instrs_per_trial", "count"},
	{"interp.snapshot.capture_us_p50", "us"},
	{"interp.snapshot.restore_us_p50", "us"},
	{"fi.replay.saved_instrs", "count"},
	{"fault.new_ms", "ms"},
	{"fault.trial_us_p50", "us"},
	{"fault.worker_util", "frac"},
	{"fault.checkpoint_ms", "ms"},
	{"bitlive.analyze_ms", "ms"},
	{"bitlive.classify_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.job_ms.plain", "ms"},
	{"server.job_ms.prune", "ms"},
	{"server.job_ms.stratify", "ms"},
	{"server.job_ms.adaptive", "ms"},
	{"server.job_ms.cache_hit", "ms"},
	{"server.cache_hit_frac", "frac"},
	{"server.shards.retries", "count"},
	{"cache.get_ms", "ms"},
	{"cache.put_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
	{"trace.reconcile_err_frac", "frac"},
}

// perKernelFamilies are per-layer metrics reported once per kernel, as
// <family>.<kernel>.
var perKernelFamilies = []string{"profile.collect_ms", "core.overall_ms", "fault.campaign_ms"}

// layerMetrics returns every per-layer metric at 0, for a traced run to
// fill in.
func layerMetrics() map[string]metric {
	m := map[string]metric{}
	for _, nu := range perLayerUnits {
		m[nu[0]] = metric{0, nu[1]}
	}
	for _, layer := range traceLayers {
		m["self_ms."+layer] = metric{0, "ms"}
	}
	for _, f := range perKernelFamilies {
		for _, k := range allKernels() {
			m[f+"."+k] = metric{0, "ms"}
		}
	}
	return m
}
