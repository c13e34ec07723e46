package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, in BENCHMARK.json
// order. What each means on each workload is in README.md.
var endToEnd = []metricDef{
	{"gflops", "GFLOP/s"},
	{"mixed_gflops", "GFLOP/s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_s_p50", "s"},
	{"job_latency_s_p90", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics every traced run prints, layer by layer.
var perLayer = []metricDef{
	{"pack.kernel_gflops", "GFLOP/s"},
	{"pack.kernel32_gflops", "GFLOP/s"},
	{"blas.dgemm_gflops", "GFLOP/s"},
	{"blas.rankk_gflops", "GFLOP/s"},
	{"blas.srankk_gflops", "GFLOP/s"},
	{"blas.panel_gflops", "GFLOP/s"},
	{"blas.spanel_gflops", "GFLOP/s"},
	{"blas.trsm_gflops", "GFLOP/s"},
	{"blas.laswp_gbps", "GB/s"},
	{"blas.frac_of_peak", "frac"},
	{"blas.flops_per_packed_byte", "flop/B"},
	{"pool.region_us", "us"},
	{"pool.regions_per_solve", "count"},
	{"lu.panel_s", "s"},
	{"lu.update_s", "s"},
	{"lu.idle_frac", "frac"},
	{"lu.sfactor_s", "s"},
	{"lu.refine_s", "s"},
	{"lu.refine_iters", "count"},
	{"lu.fallbacks", "count"},
	{"hpl.panel_s", "s"},
	{"hpl.swap_s", "s"},
	{"hpl.lbcast_s", "s"},
	{"hpl.ubcast_s", "s"},
	{"hpl.gemm_s", "s"},
	{"hpl.mixed.panel_s", "s"},
	{"hpl.mixed.swap_s", "s"},
	{"hpl.mixed.lbcast_s", "s"},
	{"hpl.mixed.ubcast_s", "s"},
	{"hpl.mixed.gemm_s", "s"},
	{"hpl.idle_frac", "frac"},
	{"hpl.untimed_s", "s"},
	{"cluster.pingpong_us", "us"},
	{"cluster.gbps", "GB/s"},
	{"cluster.bcast_us", "us"},
	{"cluster.resends", "count"},
	{"offload.gflops", "GFLOP/s"},
	{"server.submit_s_p50", "s"},
	{"server.queue_wait_s_p50", "s"},
	{"server.queue_wait_s_p90", "s"},
	{"server.run_s_p50", "s"},
	{"server.cache_hit_frac", "frac"},
	{"server.rejected_frac", "frac"},
	{"journal.append_us", "us"},
	{"journal.fsyncs_per_job", "count"},
	{"journal.replay_s", "s"},
	{"journal.replayed_frames", "count"},
	{"matrix.gen_s", "s"},
	{"matrix.residual_s", "s"},
	{"env.calib_gflops", "GFLOP/s"},
	{"env.trace_overhead_frac", "frac"},
}

// unitOf returns the declared unit of a metric; it panics on a name no
// table declares, which only a typo in this package can produce.
func unitOf(name string) string {
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.name == name {
			return d.unit
		}
	}
	panic("phibench: undeclared metric " + name)
}

// checkMetrics verifies that got holds exactly the metrics of want, each
// a finite number.
func checkMetrics(got map[string]metric, want []metricDef) error {
	var missing, extra []string
	for _, d := range want {
		m, ok := got[d.name]
		switch {
		case !ok:
			missing = append(missing, d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s was not measured (%v)", d.name, m.Value)
		}
	}
	for name := range got {
		if !declared(name, want) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metrics do not match the declared set: missing %v, undeclared %v", missing, extra)
	}
	return nil
}

func declared(name string, defs []metricDef) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
