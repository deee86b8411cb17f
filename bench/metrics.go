package main

import (
	"math"
	"sort"
)

// A metricDef names one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a user of inkserve sees, measured with tracing off.
// failed_share is not here: BENCHMARK.json admits no metric that is 0, so the
// result line carries it as `failed` over `attempted`.
//
// Every bound is 0.25, the widest BENCHMARK.json admits, not the 10-15 % the
// issue fixed. README.md, "Observed spreads", has the numbers: in a calm phase
// of the reference sandbox ten runs of one binary spread by 2-7 %, in a busy
// phase by 9-23 %, and between two such phases the medians of ten runs moved
// by 8-16 %. A bound is applied to a change's median against its parent's,
// which may be measured in the other phase.
//
// peak_rss_mb is not here: on hot_shapes_sf001 it spreads by more than its
// 10 % bound for a reason of its own, in any phase, so as the issue rules it
// is the per-layer metric serve.peak_rss_mb.
var endToEnd = []metricDef{
	{"query_ms_p50_gmean", "ms", "lower", 0.25},
	{"query_ms_p90", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_query", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of a traced run. The prefix is the
// module; README.md says which source gives each and what it should move.
var perLayer = []metricDef{
	{name: "serve.outside_exec_us", unit: "us", better: "lower"},
	{name: "serve.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "sched.queue_wait_us", unit: "us", better: "lower"},
	{name: "serve.handler_us", unit: "us", better: "lower"},
	{name: "sql.compile_us", unit: "us", better: "lower"},
	{name: "sql.bindargs_us", unit: "us", better: "lower"},
	{name: "plancache.acquire_us", unit: "us", better: "lower"},
	{name: "plancache.put_us", unit: "us", better: "lower"},
	{name: "plancache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "plancache.evictions", unit: "count", better: "lower"},
	{name: "algebra.lower_us", unit: "us", better: "lower"},
	{name: "algebra.subops_per_plan", unit: "count", better: "lower"},
	{name: "core.verifyplan_us", unit: "us", better: "lower"},
	{name: "core.genfused_us", unit: "us", better: "lower"},
	{name: "vm.compile_us", unit: "us", better: "lower"},
	{name: "vm.ir_ops_per_pipeline", unit: "count", better: "lower"},
	{name: "exec.compile_time_us", unit: "us", better: "lower"},
	{name: "exec.compile_wait_us", unit: "us", better: "lower"},
	{name: "exec.jit_morsel_share", unit: "ratio", better: "higher"},
	{name: "exec.execute_us", unit: "us", better: "lower"},
	{name: "exec.pipeline_busy_us", unit: "us", better: "lower"},
	{name: "exec.finalize_us", unit: "us", better: "lower"},
	{name: "exec.rows_per_s", unit: "1/s", better: "higher"},
	{name: "exec.vmops_per_row", unit: "count", better: "lower"},
	{name: "exec.materialized_bytes_per_row", unit: "B", better: "lower"},
	{name: "rt.local_hit_ratio", unit: "ratio", better: "higher"},
	{name: "rt.spills_per_query", unit: "count", better: "lower"},
	{name: "rt.ht_probes_per_row", unit: "count", better: "lower"},
	{name: "rt.bloom_skip_ratio", unit: "ratio", better: "higher"},
	{name: "rt.ht_inserts_per_query", unit: "count", better: "lower"},
	{name: "rt.hash_ns_per_row", unit: "ns", better: "lower"},
	{name: "rt.agg_build_lowcard_ns_per_row", unit: "ns", better: "lower"},
	{name: "rt.agg_build_highcard_ns_per_row", unit: "ns", better: "lower"},
	{name: "rt.local_agg_ns_per_row", unit: "ns", better: "lower"},
	{name: "rt.join_insert_ns_per_row", unit: "ns", better: "lower"},
	{name: "rt.join_probe_hit_ns_per_row", unit: "ns", better: "lower"},
	{name: "rt.join_probe_miss_ns_per_row", unit: "ns", better: "lower"},
	{name: "rt.partition_route_ns_per_row", unit: "ns", better: "lower"},
	{name: "tpch.generate_s", unit: "s", better: "lower"},
	{name: "interp.registry_build_ms", unit: "ms", better: "lower"},
	{name: "interp.primitives", unit: "count", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "profile.overhead_share", unit: "ratio", better: "lower"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, and 0 when the layer did no such work at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
