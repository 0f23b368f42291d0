package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// summary is what -repeat writes and -compare reads: the environment and,
// per workload, every named end-to-end metric's value in each run.
type summary struct {
	Env     envInfo                         `json:"env"`
	Seed    uint64                          `json:"seed"`
	Seconds int                             `json:"seconds"`
	Repeat  int                             `json:"repeat"`
	Runs    map[string]map[string][]float64 `json:"runs"` // workload -> metric -> values, in run order
	Failed  map[string]int                  `json:"failed"`
}

// repeatRuns runs every workload n times, untraced, interleaved (A,B,C,D,
// A,...) so that slow drift of the box spreads over all workloads instead
// of landing on one; workloads narrows the set. Each run is a child process: workloads set process-wide
// state (the kernel worker budget) and must not inherit each other's heap.
// Run i uses seed+i.
func repeatRuns(w io.Writer, workloads []string, n int, seed uint64, seconds int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	sum := summary{Env: readEnv(), Seed: seed, Seconds: seconds, Repeat: n,
		Runs: map[string]map[string][]float64{}, Failed: map[string]int{}}
	fmt.Fprintf(w, "env: %+v\n", sum.Env)
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			cmd := exec.Command(self, "-workload", wl, "-seed", strconv.FormatUint(seed+uint64(i), 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			metrics, res, perr := parseRun(stdout)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v (%v)\n", wl, i, perr, err)
				return 2
			}
			if sum.Runs[wl] == nil {
				sum.Runs[wl] = map[string][]float64{}
			}
			for name, v := range metrics {
				sum.Runs[wl][name] = append(sum.Runs[wl][name], v.Value)
			}
			sum.Failed[wl] += res.Failed
			fmt.Fprintf(w, "run %d/%d %-22s correct %v attempted %d failed %d\n", i+1, n, wl, res.Correct, res.Attempted, res.Failed)
			for _, line := range strings.Split(string(stdout), "\n") {
				if strings.Contains(line, "FAILED:") {
					fmt.Fprintln(w, line)
				}
			}
		}
	}
	printSummary(w, &sum)
	if out != "" {
		b, err := json.MarshalIndent(sum, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return 0
}

// parseRun extracts the named metrics (the detail line) and the contract
// line (the last one) from a run's standard output.
func parseRun(stdout []byte) (map[string]value, *result, error) {
	var detail, last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(detailPrefix)) {
			detail = append([]byte(nil), line[len(detailPrefix):]...)
		}
		if len(bytes.TrimSpace(line)) > 0 {
			last = append(last[:0], line...)
		}
	}
	if detail == nil || last == nil {
		return nil, nil, fmt.Errorf("run printed no result")
	}
	metrics := map[string]value{}
	if err := json.Unmarshal(detail, &metrics); err != nil {
		return nil, nil, err
	}
	res := &result{}
	if err := json.Unmarshal(last, res); err != nil {
		return nil, nil, err
	}
	return metrics, res, nil
}

// spreadOf is the interquartile range as a share of the median — the
// steadiness figure the driver computes.
func spreadOf(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func printSummary(w io.Writer, s *summary) {
	for _, wl := range workloadNames {
		fmt.Fprintf(w, "%s (%d runs, failed operations %d)\n", wl, s.Repeat, s.Failed[wl])
		for _, d := range named {
			v, ok := s.Runs[wl][d.Name]
			if !ok {
				continue
			}
			q1, q3 := quartiles(v)
			fmt.Fprintf(w, "  %-30s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  bound %.2f%%\n",
				d.Name, median(v), q1, q3, 100*spreadOf(v), 100*relBound(d, median(v)))
		}
	}
}

// relBound is a metric's bound as a share of the given median.
func relBound(d metricDef, med float64) float64 {
	if d.AbsBound > 0 && med != 0 {
		return d.AbsBound / med
	}
	return d.Bound
}

// compareFiles prints, per workload and metric, both medians and quartiles,
// the change in the metric's worse direction against its bound, and a
// verdict: ok, REGRESSION, or unresolved when either side's own spread is
// wider than the bound (so the runs cannot tell).
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readSummary(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readSummary(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "A %s: %+v seed %d, %d s x %d\n", pathA, a.Env, a.Seed, a.Seconds, a.Repeat)
	fmt.Fprintf(w, "B %s: %+v seed %d, %d s x %d\n", pathB, b.Env, b.Seed, b.Seconds, b.Repeat)
	regressions := 0
	defs := defsByName(named)
	for _, wl := range workloadNames {
		fmt.Fprintf(w, "%s (failed operations A %d, B %d)\n", wl, a.Failed[wl], b.Failed[wl])
		var names []string
		for name := range a.Runs[wl] {
			if _, ok := b.Runs[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			d := defs[name]
			va, vb := a.Runs[wl][name], b.Runs[wl][name]
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma // positive: B is worse
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			bound := relBound(d, ma)
			verdict := "ok"
			switch {
			case max(spreadOf(va), spreadOf(vb)) > bound:
				verdict = "unresolved (same-code spread exceeds the bound)"
			case worse > bound:
				verdict = "REGRESSION"
				regressions++
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "  %-30s A %11.6g [%11.6g %11.6g]  B %11.6g [%11.6g %11.6g]  worse by %+7.2f%% of bound %5.2f%%  %s\n",
				name, ma, a1, a3, mb, b1, b3, 100*worse, 100*bound, verdict)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

func readSummary(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &summary{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs (is it a -repeat summary?)", path)
	}
	return s, nil
}
