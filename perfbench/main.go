// Command perfbench is the repository's benchmark: it measures the
// wall-clock, memory and modeled-time cost of alltoallx on three workloads
// (paper, direct-connect, live; see README.md for why each exists).
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The process runs passes of the workload, each in a fresh child process,
// until the time budget is spent, so every pass starts with cold in-process
// caches and reports its own peak resident memory. A pass is a closed loop:
// each SPMD job waits for its collective to finish before the next starts.
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics (medians over passes); with --trace 1 it holds the
// per-layer metrics of traced passes, alternated with untraced ones so the
// tracing overhead is measured too. Every output is checked; a wrong byte,
// an error or a deadlock counts as a failed operation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// passBudget bounds one invocation: the benchmark must exit well inside
// three minutes, so no pass starts that could not finish before it.
const passBudget = 165 * time.Second

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is the directory for scratch files (registries) and span dumps;
	// it lies inside the checkout the benchmark runs from.
	work string
	// child mode: run exactly one pass and print its passResult.
	child  bool
	traced bool
	pass   int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: simulator noise seeds and the live block order")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced passes")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span dumps")
	fs.BoolVar(&o.child, "child", false, "internal: run one pass and print its result")
	fs.BoolVar(&o.traced, "traced", false, "internal: trace the child pass")
	fs.IntVar(&o.pass, "pass", 0, "internal: pass index of the child")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.child {
		os.Exit(childMain(o, os.Stdout, os.Stderr))
	}
	os.Exit(parentMain(o, os.Stdout, os.Stderr))
}

// passResult is what one child process reports for one pass.
type passResult struct {
	// SetupS and RunS are CPU seconds (user plus system, every thread);
	// SetupWallS and RunWallS are the same windows in wall time.
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	SetupWallS float64 `json:"setup_wall_s"`
	RunWallS   float64 `json:"run_wall_s"`
	AllocBytes float64 `json:"alloc_bytes"`
	PeakRSS    float64 `json:"peak_rss_bytes"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	// Errors describes each failed operation.
	Errors []string `json:"errors,omitempty"`
	// Values holds the workload's own end-to-end numbers (modeled_s,
	// headline_speedup, reload_s).
	Values map[string]float64 `json:"values,omitempty"`
	// Small and Large are per-exchange wall latencies of the live
	// workload's two block classes.
	Small []float64 `json:"small,omitempty"`
	Large []float64 `json:"large,omitempty"`
	// Layer holds the per-layer metrics of a traced pass.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// pass is the state a workload's pass function works with.
type pass struct {
	seed  int64
	index int
	work  string
	tr    *tracer // nil when untraced
	res   *passResult
}

func (p *pass) traced() bool { return p.tr != nil }

// attempt records the outcome of one operation: an exchange, a cell or a
// registry resolution.
func (p *pass) attempt(err error) {
	p.res.Attempted++
	if err != nil {
		p.res.Failed++
		p.res.Errors = append(p.res.Errors, err.Error())
	}
}

// layer records a per-layer metric of a traced pass.
func (p *pass) layer(name string, v float64) {
	if p.res.Layer == nil {
		p.res.Layer = make(map[string]float64)
	}
	p.res.Layer[name] = v
}

// value records a workload end-to-end number.
func (p *pass) value(name string, v float64) {
	if p.res.Values == nil {
		p.res.Values = make(map[string]float64)
	}
	p.res.Values[name] = v
}

// childMain runs one pass and prints its passResult as JSON.
func childMain(o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w := workloads[o.workload]
	res := &passResult{}
	p := &pass{seed: o.seed, index: o.pass, work: o.work, res: res}
	if o.traced {
		p.tr = newTracer()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	if err := w.run(p); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s pass %d: %v\n", o.workload, o.pass, err)
		return 1
	}
	runtime.ReadMemStats(&ms1)
	res.AllocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	res.PeakRSS = peakRSS()
	p.value("setup_wall_s", res.SetupWallS)
	p.value("run_wall_s", res.RunWallS)
	if p.traced() {
		p.layer("go.mallocs", float64(ms1.Mallocs-ms0.Mallocs))
		p.layer("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		p.layer("go.gc_cpu_s", gcCPUSeconds()-gc0)
		res.Spans = p.tr.snapshot()
	}
	// Checks that re-run work (the paper cells against bench.Measure) go
	// after the memory snapshots, so they do not count against the pass.
	if w.verify != nil {
		if err := w.verify(p); err != errSkipped {
			p.attempt(err)
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing pass result:", err)
		return 1
	}
	return 0
}

// errSkipped is returned by a workload's verify when the pass has nothing
// to check.
var errSkipped = errors.New("check skipped")

// gcCPUSeconds reads the process's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// cpuSeconds reads the process's CPU time: user plus system, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSS returns the process's peak resident memory in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// parentMain runs passes in child processes until the time budget is spent,
// then prints the metrics.
func parentMain(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: locating own executable:", err)
		return 1
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w := workloads[o.workload]
	start := time.Now()
	var plain, traced []passResult
	attempted, failed := 0, 0
	var longest time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		// A traced run needs one pass of each kind; an untraced run needs
		// enough set-ups for a median.
		enough := len(plain) >= w.minPasses
		if o.trace {
			enough = len(plain) >= 1 && len(traced) >= 1
		}
		if enough && elapsed.Seconds() >= o.seconds {
			break
		}
		if i > 0 && elapsed+longest*3/2 > passBudget {
			break
		}
		traceThis := o.trace && i%2 == 1
		t0 := time.Now()
		res, err := runChild(exe, o, i, traceThis, passBudget-elapsed, stderr)
		longest = max(longest, time.Since(t0))
		if err != nil {
			// A crashed, failed or deadlocked pass counts as one failed
			// operation. If no pass has succeeded yet, none will.
			attempted++
			failed++
			fmt.Fprintf(stderr, "perfbench: pass %d failed: %v\n", i, err)
			if len(plain)+len(traced) == 0 {
				break
			}
			continue
		}
		attempted += res.Attempted
		failed += res.Failed
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "perfbench: pass %d: %s\n", i, e)
		}
		if traceThis {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	if len(plain) == 0 || (o.trace && len(traced) == 0) {
		fmt.Fprintln(stderr, "perfbench: no pass completed")
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d passes (%d traced) in %.1f s, %d of %d operations failed\n",
		o.workload, o.seed, len(plain)+len(traced), len(traced), time.Since(start).Seconds(), failed, attempted)
	for _, r := range plain {
		fmt.Fprintf(stdout, "  pass: setup_s %.4f run_s %.4f setup_wall_s %.4f run_wall_s %.4f alloc_bytes %.0f peak_rss_bytes %.0f\n", r.SetupS, r.RunS, r.SetupWallS, r.RunWallS, r.AllocBytes, r.PeakRSS)
	}
	var out map[string]metric
	if o.trace {
		out = perLayerMetrics(plain, traced)
		if err := writeSpans(o, traced); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		out = endToEndMetrics(plain)
		printWorkloadMetrics(stdout, plain, attempted, failed)
	}
	for _, name := range sortedKeys(out) {
		fmt.Fprintf(stdout, "  %-40s %.6g %s\n", name, out[name].Value, out[name].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runChild runs one pass in a child process and decodes its result. The
// child is killed if it outlives timeout, which is how a deadlocked
// exchange becomes a failure instead of a hang.
func runChild(exe string, o options, index int, traced bool, timeout time.Duration, stderr io.Writer) (passResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	args := []string{"-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-pass", strconv.Itoa(index), "-work", o.work}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return passResult{}, fmt.Errorf("no result within %s (deadlock?)", timeout.Round(time.Second))
	}
	if err != nil {
		return passResult{}, err
	}
	var res passResult
	if err := json.Unmarshal(out, &res); err != nil {
		return passResult{}, fmt.Errorf("decoding pass result: %w", err)
	}
	return res, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics are the medians over untraced passes of the metrics every
// workload reports.
func endToEndMetrics(plain []passResult) map[string]metric {
	col := func(f func(passResult) float64) float64 {
		xs := make([]float64, len(plain))
		for i, r := range plain {
			xs[i] = f(r)
		}
		return median(xs)
	}
	return map[string]metric{
		"setup_s":        {col(func(r passResult) float64 { return r.SetupS }), "s"},
		"run_s":          {col(func(r passResult) float64 { return r.RunS }), "s"},
		"alloc_bytes":    {col(func(r passResult) float64 { return r.AllocBytes }), "bytes"},
		"peak_rss_bytes": {col(func(r passResult) float64 { return r.PeakRSS }), "bytes"},
	}
}

// printWorkloadMetrics prints the end-to-end numbers only some workloads
// have (see README.md): medians over passes of Values, latency summaries
// pooled over passes, and the failure fraction.
func printWorkloadMetrics(w io.Writer, plain []passResult, attempted, failed int) {
	vals := make(map[string][]float64)
	var small, large []float64
	for _, r := range plain {
		for k, v := range r.Values {
			vals[k] = append(vals[k], v)
		}
		small = append(small, r.Small...)
		large = append(large, r.Large...)
	}
	for _, k := range sortedKeys(vals) {
		unit := "s"
		if k == "headline_speedup" {
			unit = "x"
		}
		fmt.Fprintf(w, "  %-40s %.6g %s (median of %d)\n", k, median(vals[k]), unit, len(vals[k]))
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"small", small}, {"large", large}} {
		if len(c.xs) == 0 {
			continue
		}
		s := summarize(c.xs)
		fmt.Fprintf(w, "  %-40s %.6g s (n=%d)\n", c.name+"_p50_s", s.P50, s.N)
		if s.TailPct > 0 {
			fmt.Fprintf(w, "  %-40s %.6g s (p%g, n=%d)\n", fmt.Sprintf("%s_p%g_s", c.name, s.TailPct), s.Tail, s.TailPct, s.N)
		}
	}
	fmt.Fprintf(w, "  %-40s %.6g (%d of %d)\n", "failed_frac", float64(failed)/float64(max(attempted, 1)), failed, attempted)
}

// perLayerMetrics are the medians over traced passes of every per-layer
// metric. A layer the workload does not exercise reports zero. The tracing
// overhead is the traced passes' median run_s over the untraced passes'.
func perLayerMetrics(plain, traced []passResult) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		if m.name == traceOverhead {
			continue
		}
		var xs []float64
		for _, r := range traced {
			if v, ok := r.Layer[m.name]; ok {
				xs = append(xs, v)
			}
		}
		out[m.name] = metric{median(xs), m.unit}
	}
	run := func(rs []passResult) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.RunS
		}
		return median(xs)
	}
	out[traceOverhead] = metric{run(traced)/run(plain) - 1, "fraction"}
	return out
}

// writeSpans dumps every traced pass's spans as one JSON document.
func writeSpans(o options, traced []passResult) error {
	dir := filepath.Join(o.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	type passSpans struct {
		Pass  int    `json:"pass"`
		Spans []span `json:"spans"`
	}
	doc := make([]passSpans, len(traced))
	for i, r := range traced {
		doc[i] = passSpans{Pass: 2*i + 1, Spans: r.Spans}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
