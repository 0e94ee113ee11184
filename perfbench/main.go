// Command perfbench is the repository's benchmark. It drives the public
// mvpp API through one of three seeded workloads and prints every metric by
// name with its unit; the last line of standard output is a JSON result.
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the workload runs twice in the process, first untraced and then traced;
// the result carries the per-layer metrics of the traced pass, and the
// difference between the passes is printed as the tracing overhead. Every
// workload reports every metric of endToEnd and perLayer. The README
// beside this file explains the workloads, what each metric means on each
// of them and what it is expected to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	gomaxprocs int
	queryRate  float64
	queryLimit time.Duration
	writeRate  float64
	// workDir is a scratch directory inside the checkout for journals,
	// snapshots and the replica, removed when the run ends; traceDir
	// receives the traced run's span file and self-time table.
	workDir  string
	traceDir string
}

func (c *config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

type metric struct {
	name  string
	unit  string
	value float64
	// as is the workload-specific name the report prints beside a result
	// metric, such as design_p50_ms for latency_p50_ms on design-star.
	as string
}

// metricSpec is a metric of the result as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// endToEnd is what the result carries with --trace 0, in BENCHMARK.json's
// order. Every workload reports each of them, measured on its own
// operation; the README gives each metric's meaning per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p75_ms", "ms"},
	{"capacity_per_s", "1/s"},
	{"design_cost_blocks", "blocks"},
	{"heap_peak_mb", "MiB"},
	{"ok_ops_ratio", "fraction"},
}

// perLayer is what the result carries with --trace 1. A layer a workload
// does not exercise reads 0 there; the report says which.
var perLayer = []metricSpec{
	{"sqlparse.bind_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"optimizer.plans_enumerated", "count"},
	{"core.generate_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.evaluate_ms", "ms"},
	{"core.candidates", "count"},
	{"core.vertices", "count"},
	{"serve.cache_hit_rate", "fraction"},
	{"serve.submit_hit_us", "us"},
	{"serve.submit_miss_us", "us"},
	{"serve.backpressured_ratio", "fraction"},
	{"serve.epoch_ms", "ms"},
	{"serve.rows_per_group_commit", "rows"},
	{"serve.incremental_refresh_ratio", "fraction"},
	{"engine.rewrite_us", "us"},
	{"engine.execute_us", "us"},
	{"engine.blocks_read_per_query", "blocks"},
	{"engine.apply_deltas_ms", "ms"},
	{"engine.incremental_refresh_ms", "ms"},
	{"engine.refresh_blocks_per_epoch", "blocks"},
	{"engine.journal_append_us", "us"},
	{"snapshot.checkpoint_ms", "ms"},
	{"snapshot.recover_ms", "ms"},
	{"snapshot.bytes_per_user_byte", "B/B"},
	{"harness.late_p99_ms", "ms"},
}

// outcome is what one pass of a workload measured and checked.
type outcome struct {
	// mu guards the counters and notes, which concurrent clients update.
	mu                       sync.Mutex
	attempted, failed, wrong int
	e2e                      []metric
	// shown are metrics printed in the report but left out of the result:
	// figures only this workload has, and figures too unsteady to bound.
	shown  []metric
	layers []metric
	params map[string]any
	notes  []string
	// stageRoots and stages name, for the traced pass, the root spans of
	// the operations whose stage sum is checked and the stage spans that
	// should cover them.
	stageRoots, stages map[string]bool
}

func newOutcome() *outcome { return &outcome{params: map[string]any{}} }

// add records a result metric; as, when not empty, is the name the
// workload's own figure goes by in the report.
func (o *outcome) add(name, as, unit string, v float64) {
	o.e2e = append(o.e2e, metric{name, unit, v, as})
}

// show records a metric that is printed but left out of the result.
func (o *outcome) show(name, unit string, v float64) {
	o.shown = append(o.shown, metric{name: name, unit: unit, value: v})
}

func (o *outcome) layer(name, unit string, v float64) {
	o.layers = append(o.layers, metric{name: name, unit: unit, value: v})
}

// tail returns the p-th percentile of d, with a note when fewer than ten
// samples lie beyond it.
func (o *outcome) tail(name string, d dist, p float64) float64 {
	if !d.Supports(p) {
		tp, _, _ := d.Tail()
		o.notef("%s rests on %d samples; the highest supported percentile is p%g", name, d.N(), tp)
	}
	return d.Q(p)
}

// addHeap records heap_peak_mb from the heap samples of the measured
// window: their 99th percentile, the level the heap reached for at least
// 1% of the window. The largest single sample depends on whether a
// collection happened to start late once, which moved it by a quarter
// between runs; it is printed as a note.
func (o *outcome) addHeap(heap dist) {
	o.notef("heap samples: %d, largest %.2f MiB", heap.N(), heap.Q(100))
	o.add("heap_peak_mb", "", "MiB", heap.Q(99))
}

func (o *outcome) notef(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// count records operations: attempted, failed with an error, or answered
// wrongly.
func (o *outcome) count(attempted, failed, wrong int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += attempted
	o.failed += failed
	o.wrong += wrong
}

// finish appends the operation-accounting metric every workload reports.
// The bounded metric is the share of operations that succeeded, because a
// failure ratio reads 0 on a healthy run.
func (o *outcome) finish() {
	o.add("ok_ops_ratio", "", "fraction", 1-o.failedRatio())
}

// ok reports that no operation failed with an error or was answered
// wrongly.
func (o *outcome) ok() bool { return o.failed+o.wrong == 0 }

func (o *outcome) failedRatio() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed+o.wrong) / float64(o.attempted)
}

var workloads = map[string]func(*config, *tracer) (*outcome, error){
	"design-star": runDesignStar,
	"serve-read":  runServeRead,
	"serve-mixed": runServeMixed,
}

// resultMetrics picks specs out of got, in the specs' order. A missing
// end-to-end metric is an error of the benchmark; a missing per-layer
// metric reads 0, the work of a layer the workload does not exercise.
func resultMetrics(specs []metricSpec, got []metric, zeroOK bool) ([]metric, []string, error) {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.name] = m
	}
	var out []metric
	var zero []string
	for _, sp := range specs {
		m, ok := byName[sp.name]
		switch {
		case !ok && !zeroOK:
			return nil, nil, fmt.Errorf("the workload does not report %s", sp.name)
		case !ok:
			m = metric{name: sp.name, unit: sp.unit}
			zero = append(zero, sp.name)
		case m.unit != sp.unit:
			return nil, nil, fmt.Errorf("%s is reported in %s, not %s", sp.name, m.unit, sp.unit)
		}
		out = append(out, m)
	}
	return out, zero, nil
}

func main() {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "design-star, serve-read or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per pass")
	traceFlag := flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	// The load parameters have no defaults: their one source is the command
	// recorded in BENCHMARK.json, and the README gives the basis of each.
	flag.IntVar(&cfg.gomaxprocs, "gomaxprocs", 0, "GOMAXPROCS the recorded figures were taken at; a different value is flagged (required)")
	flag.Float64Var(&cfg.queryRate, "query-rate", 0, "open-loop query rate, queries/s (required)")
	queryLimitMS := flag.Float64("query-limit-ms", 0, "latency limit a query must meet to count toward goodput, ms (required)")
	flag.Float64Var(&cfg.writeRate, "write-rate", 0, "serve-mixed writer rate, StreamDeltas+Flush cycles/s (required)")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.queryLimit = time.Duration(*queryLimitMS * float64(time.Millisecond))
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) ||
		cfg.gomaxprocs < 1 || cfg.queryRate <= 0 || cfg.queryLimit <= 0 || cfg.writeRate <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad or missing arguments (workload %q); --gomaxprocs, --query-rate, --query-limit-ms and --write-rate are required\n", cfg.workload)
		os.Exit(2)
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	base, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg.workDir = base
	cfg.traceDir = filepath.Join(".bench_build", "trace")
	code := benchmark(cfg, run)
	os.RemoveAll(base)
	os.Exit(code)
}

func benchmark(cfg *config, run func(*config, *tracer) (*outcome, error)) int {
	stamp := environment(cfg)
	js, _ := json.Marshal(stamp)
	fmt.Printf("perfbench stamp %s\n", js)
	if stamp["gomaxprocs_mismatch"] == true {
		fmt.Printf("WARNING: GOMAXPROCS is %d but the recorded figures were taken at %d; they are not comparable\n",
			runtime.GOMAXPROCS(0), cfg.gomaxprocs)
	}

	untraced, err := run(cfg, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	report("end-to-end (untraced)", cfg, untraced)
	result, _, err := resultMetrics(endToEnd, untraced.e2e, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	attempted, failed, wrong := untraced.attempted, untraced.failed, untraced.wrong
	correct := untraced.ok()

	if cfg.trace {
		tr := newTracer()
		traced, err := run(cfg, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", cfg.workload, err)
			return 1
		}
		report("end-to-end (traced)", cfg, traced)
		fmt.Println("tracing overhead (traced ÷ untraced − 1):")
		for i, m := range untraced.e2e {
			if i < len(traced.e2e) && m.value != 0 {
				fmt.Printf("  %-22s %+7.1f%%\n", m.name, 100*(traced.e2e[i].value/m.value-1))
			}
		}
		spans := tr.snapshot()
		table := selfTable(spans)
		writeSelfTable(os.Stdout, cfg.workload, table)
		sc := stageCheck(spans, traced.stageRoots, traced.stages)
		fmt.Printf("stage-sum check: %d operations, %d uncovered by more than %.0f%% + %v (largest %.1f%%; at most %.0f%% of a kind may be); %d kinds over that; uncovered in total %.2f%% (limit %.0f%%)\n",
			sc.checked, sc.bad, 100*stageTolShare, stageTolAbs, 100*sc.worst, 100*stageTolOps, sc.badKinds, 100*sc.total, 100*stageTolTotal)
		if !sc.ok() {
			fmt.Println("FAIL: stage spans do not account for the operations' end-to-end time")
			correct = false
		}
		base := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
		if err := writeTraceFiles(cfg.traceDir, base, cfg.workload, spans, table); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace files: %v\n", err)
			return 1
		}
		fmt.Printf("trace files: %s/%s.{spans.jsonl,selftime.txt}\n", cfg.traceDir, base)
		layers, zero, err := resultMetrics(perLayer, traced.layers, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
			return 1
		}
		fmt.Println("per-layer metrics (traced pass):")
		for _, m := range layers {
			fmt.Printf("  %-32s %14.4f %s\n", m.name, m.value, m.unit)
		}
		if len(zero) > 0 {
			fmt.Printf("  not exercised by %s, so 0: %s\n", cfg.workload, strings.Join(zero, ", "))
		}
		result = layers
		attempted += traced.attempted
		failed += traced.failed
		wrong += traced.wrong
		correct = correct && traced.ok()
	}

	metrics := make(map[string]map[string]any, len(result))
	for _, m := range result {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed + wrong, "metrics": metrics,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func report(title string, cfg *config, o *outcome) {
	keys := make([]string, 0, len(o.params))
	for k := range o.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var params []string
	for _, k := range keys {
		params = append(params, fmt.Sprintf("%s=%v", k, o.params[k]))
	}
	fmt.Printf("%s, workload %s, seed %d, %ds [%s]:\n", title, cfg.workload, cfg.seed, cfg.seconds, strings.Join(params, " "))
	for _, m := range o.e2e {
		as := ""
		if m.as != "" {
			as = " = " + m.as
		}
		fmt.Printf("  %-22s %14.6g %s%s\n", m.name, m.value, m.unit, as)
	}
	for _, m := range o.shown {
		fmt.Printf("  %-22s %14.6g %s (printed only)\n", m.name, m.value, m.unit)
	}
	fmt.Printf("  %-22s %14.4f fraction (%d of %d operations failed or answered wrongly)\n",
		"failed_ops_ratio", o.failedRatio(), o.failed+o.wrong, o.attempted)
	for _, n := range o.notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// environment is the stamp printed with every result.
func environment(cfg *config) map[string]any {
	return map[string]any{
		"go_version":          runtime.Version(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"gomaxprocs_expected": cfg.gomaxprocs,
		"gomaxprocs_mismatch": cfg.gomaxprocs != runtime.GOMAXPROCS(0),
		"num_cpu":             runtime.NumCPU(),
		"cpu_model":           cpuModel(),
		"workload":            cfg.workload,
		"seed":                cfg.seed,
		"seconds":             cfg.seconds,
		"trace":               cfg.trace,
		"query_rate":          cfg.queryRate,
		"query_limit_ms":      float64(cfg.queryLimit) / float64(time.Millisecond),
		"write_rate":          cfg.writeRate,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
