package main

import (
	"fmt"
	"sort"
	"strings"
)

// workload is one set of inputs the benchmark runs. README.md records why
// each exists and which per-layer metric should move which end-to-end one.
type workload struct {
	// minPasses is the fewest untraced passes a run makes, so set-up time
	// is always a median over several set-ups.
	minPasses int
	// run performs one pass: set-up, timed exchanges, output checks, and
	// under tracing the per-layer measurements.
	run func(p *pass) error
	// verify, when set, runs after the pass's memory snapshots and counts
	// as one more checked operation, unless it returns errSkipped.
	verify func(p *pass) error
}

var workloads = map[string]workload{
	"paper":          {minPasses: 3, run: runPaper, verify: verifyPaper},
	"direct-connect": {minPasses: 3, run: runDirect},
	"live":           {minPasses: 5, run: runLive},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// traceOverhead is the per-layer metric holding the tracing overhead: the
// traced passes' median run_s over the untraced passes', minus one.
const traceOverhead = "trace.overhead_frac"

// layerMetric names a per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json's order. A layer the workload does not exercise reports
// zero.
var perLayer = func() []layerMetric {
	out := []layerMetric{
		{"sim.events", "count"},
		{"sim.messages", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.flow.admission_s", "s"},
		{"sim.flow.extra_events", "count"},
		{"sim.flow.queued_s", "s"},
		{"sim.flow.blocked_s", "s"},
		{"sim.flow.max_queue_bytes", "bytes"},
	}
	for _, algo := range paperAlgos {
		out = append(out,
			layerMetric{"core.setup_s." + algo, "s"},
			layerMetric{"core.run_s." + algo, "s"})
	}
	out = append(out, []layerMetric{
		{"core.tuned.overhead_s", "s"},
		{"core.sched_cache.hits", "count"},
		{"core.sched_cache.misses", "count"},
		{"sched.compile_s", "s"},
		{"sched.verify_rank_s", "s"},
		{"sched.verify_world_s", "s"},
		{"sched.steps", "count"},
		{"sched.rounds", "count"},
		{"sched.program_bytes", "bytes"},
		{"sched.exec_round_s", "s"},
		{"schedreg.fill_s", "s"},
		{"schedreg.hit_s", "s"},
		{"schedreg.hit_over_compile", "ratio"},
		{"schedreg.hits", "count"},
		{"schedreg.misses", "count"},
		{"schedreg.compiles", "count"},
		{"schedreg.disk_bytes", "bytes"},
		{"runtime.msgs", "count"},
		{"runtime.bytes", "bytes"},
		{"runtime.eager_frac", "fraction"},
		{"runtime.post_s", "s"},
		{"runtime.wait_s", "s"},
		{"runtime.wait_frac", "fraction"},
		{"runtime.serial_p50_s", "s"},
	}...)
	for _, algo := range paperAlgos {
		for _, ph := range paperPhases {
			out = append(out, layerMetric{fmt.Sprintf("modeled.%s.%s_s", algo, ph), "s"})
		}
	}
	return append(out, []layerMetric{
		{"go.mallocs", "count"},
		{"go.gc_cycles", "count"},
		{"go.gc_cpu_s", "s"},
		{traceOverhead, "fraction"},
	}...)
}()
