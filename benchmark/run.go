package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"crossbow/internal/tensor"
)

type runOptions struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	traceOut string
	ranks    int
}

func (o runOptions) validate() error {
	known := false
	for _, n := range workloadNames {
		known = known || n == o.workload
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", o.seconds)
	}
	if o.ranks < 0 || o.ranks == 1 || o.ranks > 8 {
		return fmt.Errorf("-ranks %d outside 2..8", o.ranks)
	}
	return nil
}

// run executes one workload once and prints its report. The untraced run
// yields the end-to-end metrics, the traced run the per-layer ones; a run
// never mixes the two.
func run(w io.Writer, o runOptions) (*result, error) {
	printEnv(w, o)
	if o.seconds >= fullLength {
		settle(w) // the smoke test's runs measure nothing worth waiting for
	}
	defs := named
	if o.traced {
		defs = perLayer
	}
	r := newReport(defs)

	var err error
	switch {
	case o.workload == wlServe && o.traced:
		err = traceServe(o, r)
	case o.workload == wlServe:
		err = runServe(o.seed, o.seconds, r)
	case o.traced:
		err = traceTrain(o.spec(), o, r)
	case o.workload == wlCluster:
		err = runCluster(o.spec(), o.seed, o.seconds, r)
	default:
		err = runTrain(o.spec(), o.seed, o.seconds, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if o.traced {
		// A layer the workload does not exercise did no work: report zero.
		for _, d := range perLayer {
			if _, ok := r.metrics[d.Name]; !ok {
				r.set(d.Name, 0, 0)
			}
			res.Metrics[d.Name] = r.metrics[d.Name]
		}
	} else {
		for _, d := range gated {
			res.Metrics[d.Name] = r.metrics[gatedSource[o.workload][d.Name]]
		}
	}
	for name, v := range res.Metrics {
		r.check(finite(v.Value), "metric %s is not finite", name)
		v.Samples = 0 // the contract's metric objects carry value and unit only
		res.Metrics[name] = v
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0

	fmt.Fprintf(w, "%s seed %d, %d s, traced %v\n", o.workload, o.seed, o.seconds, o.traced)
	r.print(w, defs)
	if !o.traced {
		fmt.Fprintln(w, "  gated (BENCHMARK.json end_to_end):")
		for _, d := range gated {
			fmt.Fprintf(w, "    %-14s = %-28s %14.6g %s  bound %g rel\n", d.Name, gatedSource[o.workload][d.Name], res.Metrics[d.Name].Value, d.Unit, d.Bound)
		}
	}
	detail, err := json.Marshal(r.metrics)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s%s\n", detailPrefix, detail)
	return res, nil
}

// detailPrefix marks the line carrying every named metric of a run, which
// -repeat collects from its child processes.
const detailPrefix = "#detail "

func (o runOptions) spec() trainSpec {
	s := trainSpecs[o.workload].sized(o.seconds)
	if o.ranks > 0 && s.ranks > 0 {
		s.ranks = o.ranks
	}
	return s
}

// envInfo describes the machine and build a set of numbers came from.
type envInfo struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	WorkerBudget int    `json:"worker_budget"`
	FMA          bool   `json:"fma"`
	AVX512       bool   `json:"avx512"`
	Commit       string `json:"git_commit"`
}

func readEnv() envInfo {
	e := envInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", WorkerBudget: tensor.WorkerBudget(), FMA: tensor.FMAAvailable(), Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20) // the flags line is long
		for sc.Scan() {
			key, val, _ := strings.Cut(sc.Text(), ":")
			switch strings.TrimSpace(key) {
			case "model name":
				e.CPUModel = strings.TrimSpace(val)
			case "flags":
				e.AVX512 = strings.Contains(val+" ", " avx512f ")
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func printEnv(w io.Writer, o runOptions) {
	e := readEnv()
	fmt.Fprintf(w, "env: nproc %d, GOMAXPROCS %d, %s, cpu %q, worker budget %d, fma %v, avx512 %v, seed %d, commit %s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.WorkerBudget, e.FMA, e.AVX512, o.seed, e.Commit)
}
