// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — fleet, sweep or daemon, each following a real CLI path — for a
// fixed time, checks the workload's outputs, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers a user sees; with
// -trace 1 the workload's work is replayed serially through each layer's
// public functions under a span recorder, and the metrics are per-layer.
// README.md in this directory documents the workloads and every metric.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh -workload fleet -seed 1 -seconds 45 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeed is the seed the pinned output digests were recorded with.
const defaultSeed = 1

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one benchmark run reports: operations attempted and
// failed (a tripped output check counts as a failed operation), the metrics,
// and human-readable detail lines printed before the result line.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	details   []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// op records one attempted operation that succeeded or failed.
func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// check records an output check. A tripped check is a failed operation with
// the reason kept for the report.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	if !ok {
		o.failed++
		o.details = append(o.details, "CHECK FAILED: "+fmt.Sprintf(format, args...))
	}
	return ok
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) note(format string, args ...any) {
	o.details = append(o.details, fmt.Sprintf(format, args...))
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    uint64
	seconds float64
	dir     string // private scratch directory, removed on exit
}

type workloadFuncs struct {
	measure func(p params) (*outcome, error)
	trace   func(p params, rec *recorder) (*outcome, error)
}

var workloads = map[string]workloadFuncs{
	"fleet":  {measure: measureFleet, trace: traceFleet},
	"sweep":  {measure: measureSweep, trace: traceSweep},
	"daemon": {measure: measureDaemon, trace: traceDaemon},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: fleet, sweep or daemon")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 45, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	out := flag.String("out", ".bench_build", "directory for scratch files and trace output")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload fleet|sweep|daemon, -seconds >= 1, -trace 0|1, -seed >= 1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-"+*name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p := params{seed: *seed, seconds: float64(*seconds), dir: dir}

	var o *outcome
	if *trace == 0 {
		o, err = w.measure(p)
	} else {
		rec := newRecorder()
		if o, err = w.trace(p, rec); err == nil {
			err = writeTrace(rec, filepath.Join(*out, "trace-"+*name+".json"), o)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, d := range o.details {
		fmt.Println(d)
	}
	return printResult(o)
}

// printResult writes the result line; it is always the last line of
// standard output.
func printResult(o *outcome) int {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, o.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
