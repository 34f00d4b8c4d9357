package main

// metric describes one reported number. Bound is set for end-to-end
// metrics only; Moves, for per-layer metrics, names the end-to-end
// metric and workload the layer number should move.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd lists the metrics every untraced run reports, on every
// workload. What each measures per workload is in README.md. The
// client's tail latencies are per-layer metrics (p99_ms, busy_p99_ms,
// swap_p99_ms): on a shared host they spread past any bound this file
// may set (see README.md, Steadiness).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "build_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "build_cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sat_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// rungs are the serve phase's steps, in order: three fixed load levels,
// then the swap rung, which repeats the nominal rate while reloads are
// issued. Reloads go last so their garbage and stalls cannot leak into
// the other rungs.
var rungs = []string{"nominal", "busy", "overload", "swap"}

// perLayer lists the metrics every traced run reports, on every
// workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{"p99_ms", "ms", "lower", 0, "none (client p99 at the nominal rung; what a tail claim names)"},
		{"busy_p99_ms", "ms", "lower", 0, "none (client p99 at the busy rung)"},
		{"swap_p99_ms", "ms", "lower", 0, "none (client p99 of requests falling due inside a swap window)"},
		{"build.peak_rss_mib", "MiB", "lower", 0, "build_s @ build (eyeballpipe rusage maxrss; GC timing moves it by about 15% run to run)"},
		{"p2p.crawl_s", "s", "lower", 0, "build_s @ build"},
		{"p2p.peers", "count", "higher", 0, "build_s @ build (work done)"},
		{"bgp.origin_table_s", "s", "lower", 0, "build_s @ build"},
		{"bgp.origin_of_ns", "ns", "lower", 0, "build_s @ build; p50_ms @ build (hot-mix lookups)"},
		{"bgp.lpm_speedup", "ratio", "higher", 0, "build_s @ build (trie over compiled LPM, the old LPM gate)"},
		{"geodb.locate_ns", "ns", "lower", 0, "build_s, build_cpu_s @ build (the dominant term)"},
		{"geodb.calls", "count", "lower", 0, "build_cpu_s @ build"},
		{"pipeline.build_stream_s", "s", "lower", 0, "build_s @ build"},
		{"pipeline.build_stream_1w_s", "s", "lower", 0, "build_cpu_s @ build"},
		{"pipeline.parallel_speedup", "ratio", "higher", 0, "build_s @ build"},
		{"pipeline.self_s", "s", "lower", 0, "build_s, build_cpu_s @ build"},
		{"pipeline.kept_frac", "ratio", "higher", 0, "none (output shape; a change means the build changed)"},
		{"pipeline.alloc_mib", "MiB", "lower", 0, "peak_rss_mib, build_cpu_s @ build"},
		{"pipeline.obs_ratio", "ratio", "lower", 0, "build_s @ build (metrics on over off, the old obs gate)"},
		{"snapshot.encode_s", "s", "lower", 0, "build_s @ build"},
		{"snapshot.bytes", "bytes", "lower", 0, "build_s @ build; setup_s"},
		{"snapshot.decode_s", "s", "lower", 0, "setup_s; swap_p99_ms"},
		{"serve.reload_s", "s", "lower", 0, "swap_p99_ms"},
		{"serve.swap_hwm_mib", "MiB", "lower", 0, "none (server peak RSS once reloads have run; peak_rss_mib is read before them)"},
		{"kde.estimate_us", "us", "lower", 0, "p50_ms, sat_rps @ serve-cold; swap_p99_ms"},
		{"grid.peaks_us", "us", "lower", 0, "p50_ms, sat_rps @ serve-cold; swap_p99_ms"},
		{"grid.components_us", "us", "lower", 0, "p50_ms, sat_rps @ serve-cold; swap_p99_ms"},
		{"core.self_us", "us", "lower", 0, "p50_ms, sat_rps @ serve-cold; swap_p99_ms"},
		{"serve.render_us", "us", "lower", 0, "sat_rps @ serve-cold; busy_p99_ms"},
		{"serve.encode_us", "us", "lower", 0, "sat_rps @ serve-cold; busy_p99_ms"},
		{"serve.render_allocs", "count", "lower", 0, "sat_rps @ serve-cold; busy_p99_ms"},
		{"serve.render_kib", "KiB", "lower", 0, "sat_rps @ serve-cold; busy_p99_ms"},
		{"runtime.gc_cpu_frac", "ratio", "lower", 0, "sat_rps @ serve-cold; busy_p99_ms"},
		{"serve.handler_hit_us", "us", "lower", 0, "p50_ms, sat_rps @ build (hot mix)"},
		{"serve.handler_lookup_us", "us", "lower", 0, "p50_ms, sat_rps @ build (hot mix)"},
		{"serve.handler_as_us", "us", "lower", 0, "p50_ms, sat_rps @ build (hot mix)"},
		{"serve.handler_hit_allocs", "count", "lower", 0, "p50_ms, sat_rps @ build (hot mix)"},
		{"serve.handler_hit_kib", "KiB", "lower", 0, "p50_ms, sat_rps @ build (hot mix; the old cached-footprint bytes gate)"},
		{"serve.traced_extra_allocs", "count", "lower", 0, "p50_ms @ build (hot mix; tracer on over off, the old trace gate)"},
		{"serve.warmed_speedup", "ratio", "higher", 0, "swap_p99_ms (cold render over cached hit, the old warm gate)"},
		{"client.footprint_us", "us", "lower", 0, "p50_ms @ build (hot mix)"},
		{"client.overhead_ratio", "ratio", "lower", 0, "p50_ms @ build (hot mix; client over bare net/http, the old client gate)"},
	}
	for _, r := range rungs {
		ms = append(ms,
			metric{"serve.hit_frac." + r, "ratio", "higher", 0, "swap_p99_ms; about 0 @ serve-cold"},
			metric{"serve.coalesced." + r, "count", "higher", 0, "swap_p99_ms; about 0 @ serve-cold"},
			metric{"serve.renders." + r, "count", "lower", 0, "sat_rps @ serve-cold; swap_p99_ms"},
			metric{"serve.shed." + r, "count", "lower", 0, "fail_frac"},
			metric{"serve.timeouts." + r, "count", "lower", 0, "fail_frac"},
			metric{"serve.server_p50_ms." + r, "ms", "lower", 0, "p50_ms (client minus server is wire, client and queue time)"},
			metric{"serve.server_p99_ms." + r, "ms", "lower", 0, "p99_ms, busy_p99_ms"},
			metric{"serve.cpu_ms_per_kreq." + r, "ms", "lower", 0, "sat_rps @ build and serve-cold"},
			metric{"serve.gc_cycles." + r, "count", "lower", 0, "p99_ms, busy_p99_ms, swap_p99_ms (server collections during the rung, which starts from a collected heap)"},
			metric{"loadgen.lag_p99_ms." + r, "ms", "lower", 0, "none (flags a late generator)"},
			metric{"loadgen.backlog_max." + r, "count", "lower", 0, "none (queue depth the program left behind)"},
			metric{"loadgen.samples." + r, "count", "higher", 0, "none (sample count behind the rung's percentiles)"},
			metric{"loadgen.kept_frac." + r, "ratio", "higher", 0, "none (share of the rung's windows quiet enough to count)"},
			metric{"loadgen.attempts." + r, "count", "lower", 0, "none (runs of the rung; more than one when the host disturbed it)"},
			metric{"host.steal_frac." + r, "ratio", "lower", 0, "none (CPU the host took from this machine during the rung)"},
		)
	}
	ms = append(ms,
		metric{"host.steal_frac.build", "ratio", "lower", 0, "none (CPU the host took during the timed builds, median)"},
		metric{"run.fail_frac", "ratio", "lower", 0, "none (failed over attempted ops, output checks included)"},
	)
	for _, e := range endToEnd {
		ms = append(ms, metric{"trace_overhead." + e.Name, e.Unit, e.Better, 0, "none (traced minus untraced " + e.Name + ")"})
	}
	return ms
}

// servePlan is one workload's serve phase: the request mix, the three
// fixed absolute rates (requests per second; the swap rung runs at the
// nominal rate), each rung's share of the phase, and how many reloads
// the swap rung spreads evenly, each opening a swap window that lasts
// until the next.
type servePlan struct {
	mix     string
	rates   [3]float64
	shares  [4]float64
	reloads int
	// capacity is the overload-rung throughput this mix reached on the
	// default seed's artifact, which the rates were chosen from
	capacity float64
}

// workload is one benchmark workload. The build workload times one
// default-scale build and serves the artifact it built; a serve workload
// times smallBuilds test-scale builds and serves the default-seed
// artifact. Both serve for all of --seconds.
type workload struct {
	name  string
	why   string
	serve bool
	plan  servePlan
}

// holdoutSeed is a seed no tuning of this benchmark used; claims must
// also hold on it.
const holdoutSeed = 9001

// artifactSeed is the world seed of every build and of the serve
// workloads' artifact.
const artifactSeed = 42

// smallBuilds is how many test-scale builds a serve workload times.
const smallBuilds = 5

// setupStarts is how many times each run starts eyeballserve to time
// set-up; the last start stays up for the serve phase.
const setupStarts = 3
