// Command benchmark is the repository's one benchmark: four workloads, the
// end-to-end numbers from an untraced run through the public crossbow API,
// and per-layer numbers from a separate traced run in which the benchmark
// wires the same layers itself and times every closure it hands them. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// result is the last line a run prints: the contract with the driver.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 20, "length of the measured part of the run")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", ".bench_build/trace.json", "where a traced run writes its spans")
		ranks    = flag.Int("ranks", 0, "cluster ranks (default 2; other values are not comparable with recorded numbers)")
		repeat   = flag.Int("repeat", 0, "run every workload this many times, interleaved, and summarise")
		out      = flag.String("out", "", "with -repeat: write the summary to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -repeat summaries: -compare a.json b.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *repeat > 0:
		workloads := workloadNames
		if *workload != "" {
			workloads = []string{*workload}
		}
		os.Exit(repeatRuns(os.Stdout, workloads, *repeat, *seed, *seconds, *out))
	}

	opts := runOptions{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, traceOut: *traceOut, ranks: *ranks}
	if err := opts.validate(); err != nil {
		fatal(err.Error())
	}
	res, err := run(os.Stdout, opts)
	if err != nil {
		fatal(err.Error())
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(2)
}
