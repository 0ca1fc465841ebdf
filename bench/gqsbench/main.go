// Command gqsbench is the end-to-end benchmark of GQS. One invocation
// runs one workload for a fixed wall-clock window, checks that the
// outputs are correct, prints every metric as `name value unit`, and
// ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the workload runs traced, the spans are
// written to .bench_build/spans-<workload>.json, and the metrics are the
// per-layer ones. See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Options is what every workload receives.
type Options struct {
	Seed   int64
	Window time.Duration
	Trace  bool
	// WorkDir holds the workload's scratch files (journals); SpansPath is
	// where a traced run writes its spans.
	WorkDir   string
	SpansPath string
	// Tiny shrinks every size so the tests can run all workloads quickly.
	Tiny bool
}

// metricDef is one reported metric.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the campaign sees; every workload
// reports all of them with tracing off. An op is one GDB-iteration of a
// campaign, one check of the replay, one operation of the large graph.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_us_p50", "us"},
	{"op_us_p99", "us"},
	{"allocs_per_op", "count"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named by the layer (module)
// they measure. A workload that does no work in a layer during its timed
// window reports 0 for it.
var perLayer = []metricDef{
	{"graph.generate_us_per_iteration", "us"},
	{"graph.seal_us_per_iteration", "us"},
	{"graph.bulk_generate_s", "s"},
	{"graph.seal_s", "s"},
	{"graph.prop_index_s", "s"},
	{"graph.adj_index_s", "s"},
	{"core.ground_truth.us_per_query", "us"},
	{"core.synth.us_per_query", "us"},
	{"core.synth.us_p99", "us"},
	{"core.synth.share", "ratio"},
	{"core.synth.steps_per_query", "count"},
	{"core.synth.failures_per_attempt", "ratio"},
	{"engine.prepare.us_per_query", "us"},
	{"engine.prepare.share", "ratio"},
	{"engine.prepare.planned_ratio", "ratio"},
	{"engine.exec.us_p50", "us"},
	{"engine.exec.us_p99", "us"},
	{"engine.exec.share", "ratio"},
	{"engine.exec.calls_per_query", "count"},
	{"engine.exec.error_ratio", "ratio"},
	{"engine.exec.hop1_us_p50", "us"},
	{"engine.exec.hop1_us_p99", "us"},
	{"engine.exec.hop2_us_p50", "us"},
	{"engine.exec.hop2_us_p99", "us"},
	{"engine.exec.hop3_us_p50", "us"},
	{"engine.exec.hop3_us_p99", "us"},
	{"engine.exec.hub_us_p50", "us"},
	{"engine.exec.hub_us_p99", "us"},
	{"engine.exec.write_us_p50", "us"},
	{"engine.exec.write_us_p99", "us"},
	{"gdb.reset.us_per_call", "us"},
	{"gdb.reset.calls_per_op", "count"},
	{"core.runner.self_us_per_query", "us"},
	{"core.runner.skip_ratio", "ratio"},
	{"core.verdict.us_per_query", "us"},
	{"core.shard.parallelism", "ratio"},
	{"core.shard.idle_ratio", "ratio"},
	{"journal.write_s", "s"},
	{"journal.share", "ratio"},
	{"journal.checkpoints", "count"},
	{"journal.mb_per_checkpoint", "MB"},
	{"journal.mb", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"bench.trace_overhead", "ratio"},
}

// Result is one workload run's outcome.
type Result struct {
	Attempted int
	Failed    int
	values    map[string]float64
	checks    []check
	notes     []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newResult() *Result { return &Result{values: map[string]float64{}} }

// Set records a metric value.
func (r *Result) Set(name string, v float64) { r.values[name] = v }

// Check records one correctness check.
func (r *Result) Check(name string, ok bool, detail string) {
	r.checks = append(r.checks, check{name, ok, detail})
}

// Note records an informational line printed before the metrics.
func (r *Result) Note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Correct reports whether every check passed and at least one ran.
func (r *Result) Correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// JSON renders the result line for the given metric set; a metric the
// workload did not set reads 0.
func (r *Result) JSON(defs []metricDef) ([]byte, error) {
	out := resultJSON{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricJSON{Value: r.values[d.name], Unit: d.unit}
	}
	return json.Marshal(out)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(Options) (*Result, error){
	"campaign":            func(o Options) (*Result, error) { return runCampaignWorkload(o, false) },
	"campaign-durable-2w": func(o Options) (*Result, error) { return runCampaignWorkload(o, true) },
	"replay":              runReplay,
	"large-graph":         runLargeGraph,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	workload := flag.String("workload", "campaign", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gqsbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	// Scratch files live in the working directory's build area, never in
	// the system temp dir.
	root := ".bench_build"
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "gqsbench: %v\n", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(root, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gqsbench: %v\n", err)
		os.Exit(1)
	}
	opts := Options{
		Seed:      *seed,
		Window:    time.Duration(*seconds * float64(time.Second)),
		Trace:     *trace == 1,
		WorkDir:   work,
		SpansPath: filepath.Join(root, "spans-"+*workload+".json"),
	}
	res, err := run(opts)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gqsbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if opts.Trace {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d GOMAXPROCS %d NumCPU %d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("check %s %s %s\n", c.name, status, c.detail)
	}
	for _, d := range defs {
		fmt.Printf("%s %.6g %s\n", d.name, res.values[d.name], d.unit)
	}
	line, err := res.JSON(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gqsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct() {
		os.Exit(1)
	}
}
