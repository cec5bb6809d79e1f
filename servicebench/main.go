// Command servicebench is the repository's service benchmark. It stands
// up the serving stack in one process — pba-serve replicas, optionally
// behind a pba-router, composed from the same public constructors the
// two commands use, with their default settings — on 127.0.0.1:0
// listeners, drives one workload over the binary wire protocol, checks
// the outputs, and prints its metrics.
//
// Usage, from the repository root (run.sh builds the module first):
//
//	bash servicebench/run.sh --workload cluster-churn --seed 3 --seconds 40 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// carrying the end-to-end metrics BENCHMARK.json bounds; the others are
// printed above it. With --trace 1 a phase of half the length on the
// plain stack is followed by one on a second stack built with the
// benchmark's timing wrappers; their difference is the tracing
// overhead. The cost ladder then replays a sequential slice of the
// workload through every layer, and the JSON object carries the
// per-layer metrics. Spans are kept in memory and written to the --spans
// directory when the run ends. The lines before the JSON object are for
// people: every metric by name and unit, the sample counts, the
// correctness checks, and the environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// runDeadline bounds a whole invocation: set-up, the timed phases, the
// checks, the ladder, and teardown. A run that overstays it is killed
// with a non-zero exit instead of hanging.
const runDeadline = 170 * time.Second

func main() {
	var (
		name     = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "workload seed: sets the request sizes and which IDs are released")
		seconds  = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		spansDir = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "servicebench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "servicebench: need --seconds >= 1 and --trace 0 or 1\n")
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "servicebench: run exceeded its %v deadline\n", runDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, spansDir: *spansDir}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "servicebench: %v\n", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("metric %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servicebench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
