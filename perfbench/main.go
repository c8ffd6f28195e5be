// Command perfbench is the repository's benchmark. It runs one workload
// against the code as users run it, checks the outputs, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// a separate, traced run reports the per-layer metrics.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload search --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare <results-A> <results-B>
//
// Workloads:
//
//	search   one serve server over loopback HTTP
//	cluster  a coordinator over three shard workers
//	pricing  Black-Scholes pricing under two core.Func controllers, in process
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

type metricDef struct{ Name, Unit string }

// The end-to-end metrics every workload reports (BENCHMARK.json's
// end_to_end list).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"slo_attain", "fraction"},
	{"qos_loss", "fraction"},
	{"work_per_query", "work"},
	{"ok_frac", "fraction"},
	{"rss_mb", "MiB"},
}

// The per-layer metrics of a traced run (BENCHMARK.json's per_layer
// list). The first three are whole-system figures: they are reported
// here, unbounded, because on a shared host their run-to-run spread
// exceeded the largest bound an end-to-end figure may have. Every run
// prints them in its notes.
var layerMetrics = []metricDef{
	{"lat_p50_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"cpu_us_per_query", "us"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"http.overhead_p50_us", "us"},
	{"http.conns_dialed", "count"},
	{"http.shard_hop_p50_us", "us"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.qcache_hit_share", "fraction"},
	{"serve.allocs_per_query", "count"},
	{"serve.shed", "count"},
	{"serve.deadline_partial", "count"},
	{"search.docs_per_query", "count"},
	{"search.ns_per_doc", "ns"},
	{"search.approx_share", "fraction"},
	{"core.level_mean", "level"},
	{"core.recalibrations", "count"},
	{"core.monitored_share", "fraction"},
	{"core.monitored_loss", "fraction"},
	{"core.func_call_ns", "ns"},
	{"core.func_work_per_option", "terms"},
	{"cluster.handler_p50_us", "us"},
	{"cluster.handler_p99_us", "us"},
	{"cluster.shard_p50_us", "us"},
	{"cluster.shard_p99_us", "us"},
	{"cluster.self_p50_us", "us"},
	{"cluster.partial_bytes_per_query", "bytes"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.degraded_share", "fraction"},
	{"cluster.budget_pushes", "count"},
	{"cluster.aggregate_ms", "ms"},
	{"proc.gc_cpu_share", "fraction"},
	{"trace.residual_us", "us"},
	{"trace.overhead_us", "us"},
}

// report is one run's outcome.
type report struct {
	env       envRecord
	notes     []string
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
}

// newReport starts every per-layer metric at 0, which is what a layer
// the workload does not run reports.
func newReport(env envRecord) *report {
	r := &report{env: env, e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, d := range layerMetrics {
		r.layer[d.Name] = 0
	}
	return r
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records an output-check failure: the run is not correct.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the record, the notes, every metric and, last, the JSON
// result.
func (r *report) print() error {
	rec, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", rec)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	defs, vals := e2eMetrics, r.e2e
	if r.env.Trace {
		defs, vals = layerMetrics, r.layer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s not measured (%v)", d.Name, v)
			v = 0
		}
		fmt.Printf("metric %-32s %14.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res.Correct = len(r.problems) == 0
	if res.Attempted < 1 {
		res.Attempted, res.Correct = 1, false
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServer(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	root := fs.String("root", ".", "repository root (BENCHMARK.json, trace output under .bench_build)")
	wl := fs.String("workload", "", "search, cluster or pricing")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		if err := runCompare(*root, fs.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	env := newEnvRecord(*root, *wl, *seed, *seconds, *trace == 1)
	var rep *report
	var err error
	switch *wl {
	case "search", "cluster":
		rep, err = runHTTP(*root, httpWorkloads[*wl], env)
	case "pricing":
		rep, err = runPricing(env)
	default:
		err = fmt.Errorf("unknown --workload %q (want search, cluster or pricing)", *wl)
	}
	if err == nil {
		err = rep.print()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
