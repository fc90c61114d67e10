// Command perfbench is the repository benchmark. It generates its own
// inputs from a seed, drives the replay engine and the job service from
// the outside, checks that their outputs are correct, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload eval-serial --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics on an untraced run;
// --trace 1 runs the traced layer walk and prints the per-layer metrics.
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// defaultSeed is the seed the golden digests in golden.json belong to.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// work is the scratch directory for trace files and store segments;
	// it lives under the checkout's .bench_build and is removed at exit.
	// Span dumps go to its parent and stay.
	work string
	out  io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 25, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced layer walk and per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		work:    work,
		out:     stdout,
	}
	res, err := w(cfg)
	if err != nil {
		var ce *checkError
		if !errors.As(err, &ce) {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", *name, err)
		res.Correct = false
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// workloads maps each workload name to its runner. A runner returns the
// filled result, or an error: a *checkError when an output check failed
// (the result is still printed, with correct=false), anything else when
// the benchmark itself could not run.
var workloads = map[string]func(config) (*result, error){
	"eval-serial":        runReplay(evalSerial),
	"encrypted-parallel": runReplay(encryptedParallel),
	"lifetime-parallel":  runReplay(lifetimeParallel),
	"service":            runService,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// result is the benchmark's report. Metrics are printed one per line in
// name order before the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "metric %-40s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// checkError marks a failed output check, as opposed to a benchmark
// that could not run.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}
