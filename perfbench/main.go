// Command perfbench is the repository's benchmark: it runs one named
// workload against inferray's public API, checks the outputs, and prints
// one JSON result line. See README.md for the workloads and for which
// layer metric should move which end-to-end metric.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload twice in one process, untraced then traced, each
// for half of --seconds: it reports the per-layer metrics from the
// traced pass and, as trace.overhead.<metric>, how far every end-to-end
// metric of the traced pass lies from the untraced pass.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workDir holds the benchmark's scratch data (durable data directories,
// span files), relative to the repository root the benchmark runs from.
const workDir = ".bench_build/perfbench"

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

// metricSpec is one metric BENCHMARK.json declares: its name and unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the end-to-end metrics. Every workload reports every
// one of them, each measured on its own operations and data, and none
// may be 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_bytes_per_triple", "B"},
	{"restart_s", "s"},
	{"disk_bytes_per_triple", "B"},
}

// perLayer lists the per-layer metrics of a traced run, which also
// reports trace.overhead.<metric> for every end-to-end metric. A
// workload reports 0 for a layer it does not call into.
var perLayer = []metricSpec{
	{"rdf.parse_s", "s"},
	{"reasoner.load_s", "s"},
	{"reasoner.normalize_s", "s"},
	{"closure.theta_s", "s"},
	{"rules.loop_s", "s"},
	{"rules.iterations", "count"},
	{"rules.fired_ratio", "ratio"},
	{"hierarchy.virtual_share", "ratio"},
	{"store.stored_triples", "count"},
	{"dictionary.terms", "count"},
	{"sparql.parse_us", "us"},
	{"query.exec_p50_ms", "ms"},
	{"query.exec_p99_ms", "ms"},
	{"query.allocs_per_row", "count"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.allocs_per_row", "count"},
	{"server.bytes_per_row", "B"},
	{"http.transport_ms", "ms"},
	{"qcache.hit_ratio", "ratio"},
	{"reasoner.insert_ms", "ms"},
	{"reasoner.delete_ms", "ms"},
	{"reasoner.overdeleted_per_delete", "count"},
	{"reasoner.rederived_per_delete", "count"},
	{"wal.bytes_per_write", "B"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.replay_ms_per_record", "ms"},
	{"snapshot.checkpoint_s", "s"},
	{"snapshot.bytes_per_triple", "B"},
	{"server.read_blocked_share", "ratio"},
	{"server.read_blocked_ms", "ms"},
	{"server.read_free_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
}

// overheadMetric names the traced run's overhead on an end-to-end
// metric.
func overheadMetric(e2e string) string { return "trace.overhead." + e2e }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what a workload receives: the seed its inputs come from
// and how long its timed phase lasts.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tmp     string
}

// outcome is one pass of a workload. problems lists failed correctness
// checks; any entry makes the run incorrect.
type outcome struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig, *tracer) (*outcome, error){
	"bulk-lubm":   runBulk,
	"serve-read":  runServeRead,
	"serve-mixed": runServeMixed,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: bulk-lubm, serve-read or serve-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated data and request sequences")
	seconds := flag.Float64("seconds", 25, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload bulk-lubm|serve-read|serve-mixed, --seconds > 0 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), tmp: tmp}
	res, err := measure(wl, cfg, *traceFlag == 1, *name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload once untraced, or, for a traced run, once
// untraced and once traced at half length each.
func measure(wl func(runConfig, *tracer) (*outcome, error), cfg runConfig, traced bool, name string) (*result, error) {
	if !traced {
		o, err := wl(cfg, nil)
		if err != nil {
			return nil, err
		}
		checkEndToEnd(o)
		report(name, "untraced", o)
		return &result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.e2e}, nil
	}
	cfg.seconds /= 2
	plain, err := wl(cfg, nil)
	if err != nil {
		return nil, err
	}
	checkEndToEnd(plain)
	report(name, "untraced", plain)
	tr := newTracer()
	o, err := wl(cfg, tr)
	if err != nil {
		return nil, err
	}
	checkEndToEnd(o)
	for _, m := range endToEnd {
		base := plain.e2e[m.name].Value
		o.layer[overheadMetric(m.name)] = metric{100 * ratio(o.e2e[m.name].Value-base, base), "%"}
	}
	for _, m := range perLayer {
		if got, ok := o.layer[m.name]; !ok {
			o.layer[m.name] = metric{0, m.unit}
		} else if got.Unit != m.unit {
			o.problem("layer metric %s in %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	report(name, "traced", o)
	spans := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), spans)
	return &result{
		Correct:   len(plain.problems) == 0 && len(o.problems) == 0,
		Attempted: plain.attempted + o.attempted,
		Failed:    plain.failed + o.failed,
		Metrics:   o.layer,
	}, nil
}

// checkEndToEnd fails the pass when it did not measure every
// end-to-end metric, in its unit and above 0.
func checkEndToEnd(o *outcome) {
	for _, m := range endToEnd {
		got, ok := o.e2e[m.name]
		if !ok || got.Unit != m.unit || !(got.Value > 0) {
			o.problem("end-to-end metric %s is %+v, want a positive value in %s", m.name, got, m.unit)
		}
	}
}

// report prints a pass's figures and failed checks to standard error.
func report(name, pass string, o *outcome) {
	fmt.Fprintf(os.Stderr, "perfbench: %s (%s): attempted=%d failed=%d\n", name, pass, o.attempted, o.failed)
	for _, group := range []map[string]metric{o.e2e, o.layer} {
		keys := make([]string, 0, len(group))
		for k := range group {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "  INCORRECT:", p)
	}
}

var errIncomplete = errors.New("no operation completed in the timed phase")
