// Command perfbench is the repository's end-to-end benchmark. One run sets
// up one workload (simulate the campaign, ingest it, build the dataset, fit
// the model and start serving), drives it from this process for a fixed
// time through the program's public entry points only, checks every output
// against a direct reference computation, and prints each metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run instead wraps spans around the calls into each layer and reports the
// per-layer metrics, writing the spans to --trace-out. Usage:
//
//	bash perfbench/run.sh --workload job-dashboard --seed 1 --seconds 10 --trace 0
//
// README.md lists the workloads, the metrics and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the tables below are the
// benchmark's whole vocabulary and mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"verdicts_per_s", "1/s"},
	{"ingest_rows_per_s", "1/s"},
	{"cpu_us_per_verdict", "us"},
	{"ok_frac", "frac"},
	{"f1", "frac"},
	{"detect_delay_s", "s"},
	{"live_heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"server.transport_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.decode_ms", "ms"},
	{"serve.coalesce_wait_ms", "ms"},
	{"serve.coalesce_wait_p99_ms", "ms"},
	{"serve.batch_rows_mean", "count"},
	{"serve.flush_window_frac", "frac"},
	{"serve.flush_size_frac", "frac"},
	{"serve.flush_drain_frac", "frac"},
	{"serve.shed_frac", "frac"},
	{"core.analyze_job_ms", "ms"},
	{"dsos.query_job_ms", "ms"},
	{"dsos.ingest_us_per_row", "us"},
	{"pipeline.assemble_ms", "ms"},
	{"pipeline.select_scale_us_per_row", "us"},
	{"vae.scores_us_per_row", "us"},
	{"features.extract_ms_per_node", "ms"},
	{"features.pool_miss_frac", "frac"},
	{"timeseries.arena_pool_miss_frac", "frac"},
	{"mat.pool_miss_frac", "frac"},
	{"ensemble.prefilter_us_per_row", "us"},
	{"ensemble.fleet_us_per_row", "us"},
	{"ensemble.fuse_us_per_row", "us"},
	{"ensemble.pass_frac", "frac"},
	{"ensemble.member_ns_per_row.vae", "ns"},
	{"ensemble.member_ns_per_row.usad", "ns"},
	{"ensemble.member_ns_per_row.lof", "ns"},
	{"ensemble.members_active_min", "count"},
	{"ensemble.sched_transitions", "count"},
	{"online.ingest_us_per_row", "us"},
	{"online.assemble_ms_per_window", "ms"},
	{"online.score_us_per_window", "us"},
	{"online.windows_dropped_frac", "frac"},
	{"harness.gen_late_p99_ms", "ms"},
	{"harness.tracing_overhead_frac", "frac"},
	{"harness.attribution_gap_frac", "frac"},
}

// options configure one run.
type options struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	traceOut  string
	setupReps int
	// sabotage names an output check to break on purpose; the smoke tests
	// use it to show that every check can fail.
	sabotage string
}

// result is what one run measured and checked.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// samples is the sample count behind each percentile or mean.
	samples map[string]int
	// problems lists failed output or attribution checks.
	problems []string
	// genLateP99Ms is how late the open-loop generator ran behind its
	// schedule (0 for closed loops); invalid is set when it fell behind.
	genLateP99Ms float64
	invalid      string
	notes        []string
	// info holds figures printed and recorded but not gated.
	info map[string]float64
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}, info: map[string]float64{}}
}

// newSetupResult starts a result with the set-up metrics of the workloads
// whose measured phase writes nothing to dsos: the median set-up time and
// the campaign's Store.Ingest rate.
func newSetupResult(setupS float64, c *campaign) *result {
	r := newResult()
	r.metrics["setup_s"] = setupS
	rate := c.ingestRate()
	r.metrics["ingest_rows_per_s"] = rate
	r.metrics["dsos.ingest_us_per_row"] = 1e6 / rate
	return r
}

func (r *result) fail(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one traffic shape the benchmark drives.
type workload struct {
	name string
	run  func(o options) (*result, error)
}

var workloads = []workload{
	{"job-dashboard", runJobDashboard},
	{"score-http", runScoreHTTP},
	{"tier-cascade", runTierCascade},
	{"live-ingest", runLiveIngest},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// maxGenLateMs is the open-loop validity limit: a generator whose p99
// lateness behind its schedule exceeds it did not offer the stated load.
const maxGenLateMs = 20.0

func main() {
	name := flag.String("workload", "", "workload to run: job-dashboard, score-http, tier-cascade or live-ingest")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	o := options{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		traceOut:  *traceOut,
		setupReps: 3,
	}
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.json", w.name, o.seed)
	}
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !report(os.Stdout, w.name, o, res) {
		os.Exit(1)
	}
}

// report prints the human-readable metric lines, the environment record
// and the final result line, and returns whether the run was correct.
func report(out io.Writer, name string, o options, res *result) bool {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("metric %s missing or not finite (%v)", d.name, v)
			v = 0
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-34s %16.6f %s\n", d.name, v, d.unit)
	}
	for _, k := range sortedKeys(res.info) {
		fmt.Fprintf(out, "%-34s %16.6f (not gated)\n", k, res.info[k])
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	if res.invalid != "" {
		fmt.Fprintf(out, "INVALID RUN: %s\n", res.invalid)
	}
	env := map[string]interface{}{
		"workload":        name,
		"seed":            o.seed,
		"seconds":         o.seconds.Seconds(),
		"trace":           o.trace,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"samples":         res.samples,
		"gen_late_p99_ms": res.genLateP99Ms,
		"valid":           res.invalid == "",
		"info":            res.info,
	}
	envLine, _ := json.Marshal(env) // plain maps of numbers and strings always encode
	fmt.Fprintf(out, "env %s\n", envLine)
	correct := len(res.problems) == 0
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
		correct = false
	}
	final, _ := json.Marshal(map[string]interface{}{
		"correct":   correct,
		"attempted": attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(out, "%s\n", final)
	return correct
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// timedSetups runs setup reps times, releasing every deployment but the
// last, and returns the last one with the median set-up time in seconds.
func timedSetups[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(last)
			runtime.GC()
		}
		start := time.Now()
		d, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = d
	}
	return last, median(times), nil
}
