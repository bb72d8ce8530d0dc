package main

import "strconv"

// workload is one fixed topology and traffic mix. Names are fixed:
// later issues cite them.
type workload struct {
	name     string
	why      string // one line, copied into BENCHMARK.json
	sessions int
	routed   bool   // client → lce-router → two nodes
	fsync    string // non-empty: nodes get -data-dir <fresh dir> -fsync <policy>
	pool     int    // non-zero: nodes get -sessions <pool> (default 64)
	learn    bool   // no HTTP: the paper's learn → align loop
}

// durable reports whether the workload's nodes journal to disk.
func (w *workload) durable() bool { return w.fsync != "" }

// serverArgs are the lce-server flags every node of the workload gets,
// short of its data directory, node name and address.
func (w *workload) serverArgs() []string {
	args := []string{"-service", "ec2", "-backend", "learned", "-log-format", "off"}
	if w.fsync != "" {
		args = append(args, "-fsync", w.fsync)
	}
	if w.pool != 0 {
		args = append(args, "-sessions", strconv.Itoa(w.pool))
	}
	return args
}

var workloads = []workload{
	{
		name:     "hot-direct",
		why:      "one node, 32 resident sessions: httpapi, wire codec, tenant hit path and interpreter do all the work; durable and cluster do none",
		sessions: 32,
	},
	{
		name:     "hot-routed",
		why:      "same load through lce-router and two nodes: adds only the cluster hop, so a router change must move this and leave hot-direct alone",
		sessions: 32,
		routed:   true,
	},
	{
		name:     "durable-write",
		why:      "one node with -fsync always, 32 resident sessions: every call pays journal append and fsync; no spill, no rehydrate",
		sessions: 32,
		fsync:    "always",
	},
	{
		name:     "durable-churn",
		why:      "48 sessions over a 16-session pool with -fsync batch: eviction, snapshot spill, rehydrate and journal replay dominate; appends are cheap",
		sessions: 48,
		fsync:    "batch",
		pool:     16,
	},
	{
		name:  "learn-align",
		why:   "no HTTP: docs to spec to alignment against the oracle for four services; the only load on synth, spec, symexec, align and trace",
		learn: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef declares one reported number. bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are what a user of the binaries sees; measured with tracing
// off. BENCHMARK.json repeats this table and a test keeps them equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solo_p50_ms", "ms", "lower", 0.25},
	{"sat_ops_s", "ops/s", "higher", 0.25},
}

// perLayer are the single-layer numbers, all taken from outside the
// program. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// Process accounting during the untraced run.
	{name: "failed_share", unit: "ratio", better: "lower"},
	{name: "client.solo_p90_ms", unit: "ms", better: "lower"},
	{name: "client.solo_p99_ms", unit: "ms", better: "lower"},
	{name: "client.sat_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "node.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "router.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "node.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "router.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "node.write_bytes_per_op", unit: "B", better: "lower"},
	{name: "tenant.hit_rate", unit: "ratio", better: "higher"},
	{name: "tenant.evictions_per_op", unit: "ratio", better: "lower"},
	{name: "durable.disk_bytes_per_session", unit: "B", better: "lower"},
	{name: "durable.restart_s", unit: "s", better: "lower"},
	{name: "durable.recover_first_touch_ms", unit: "ms", better: "lower"},
	{name: "cluster.hop_ratio", unit: "ratio", better: "lower"},
	// Traced run: mean self time per op, rows sum to the request.
	{name: "client.self_us", unit: "us", better: "lower"},
	{name: "cluster.self_us", unit: "us", better: "lower"},
	{name: "httpapi.self_us", unit: "us", better: "lower"},
	{name: "durable.journal_self_us", unit: "us", better: "lower"},
	{name: "durable.rehydrate_self_us", unit: "us", better: "lower"},
	{name: "durable.spill_self_us", unit: "us", better: "lower"},
	{name: "interp.self_us", unit: "us", better: "lower"},
	{name: "durable.rehydrate_event_us", unit: "us", better: "lower"},
	{name: "durable.spill_event_us", unit: "us", better: "lower"},
	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.ops", unit: "count", better: "higher"},
	// Direct calls into public functions, serving layers.
	{name: "interp.invoke_read_ns", unit: "ns", better: "lower"},
	{name: "interp.invoke_write_ns", unit: "ns", better: "lower"},
	{name: "interp.invoke_error_ns", unit: "ns", better: "lower"},
	{name: "interp.allocs_per_invoke", unit: "count", better: "lower"},
	{name: "interp.compile_ms", unit: "ms", better: "lower"},
	{name: "interp.export_state_us", unit: "us", better: "lower"},
	{name: "interp.restore_state_us", unit: "us", better: "lower"},
	{name: "cloudapi.decode_ns", unit: "ns", better: "lower"},
	{name: "cloudapi.encode_ns", unit: "ns", better: "lower"},
	{name: "httpapi.handler_ns", unit: "ns", better: "lower"},
	{name: "httpapi.handler_allocs", unit: "count", better: "lower"},
	{name: "tenant.get_hit_ns", unit: "ns", better: "lower"},
	{name: "cluster.ring_owner_ns", unit: "ns", better: "lower"},
	{name: "durable.encode_snapshot_us", unit: "us", better: "lower"},
	{name: "durable.decode_snapshot_us", unit: "us", better: "lower"},
	{name: "durable.snapshot_bytes", unit: "B", better: "lower"},
	// Direct calls, learning layers, and the loop's exact counts.
	{name: "synth.synthesize_ms", unit: "ms", better: "lower"},
	{name: "spec.parse_check_ms", unit: "ms", better: "lower"},
	{name: "symexec.violations_ms", unit: "ms", better: "lower"},
	{name: "align.compare_suite_ms", unit: "ms", better: "lower"},
	{name: "align.run_ms", unit: "ms", better: "lower"},
	{name: "align.rounds", unit: "count", better: "lower"},
	{name: "align.comparisons", unit: "count", better: "lower"},
	{name: "align.repairs", unit: "count", better: "lower"},
	{name: "align.fig3_aligned_before", unit: "count", better: "higher"},
	{name: "align.fig3_aligned_after", unit: "count", better: "higher"},
}
