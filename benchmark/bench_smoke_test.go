package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesTables holds BENCHMARK.json and the tables in spec.go to
// each other: same workloads, same metrics, same units, directions and
// bounds, every name and unit in the contract's alphabet.
func TestSpecMatchesTables(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why empty or longer than 200 characters (%d)", w.Name, len(w.Why))
		}
		if _, ok := gatedSource[w.Name]; !ok {
			t.Errorf("workload %q has no gated-metric sources", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the benchmark %d", len(spec.EndToEnd), len(gated))
	}
	seen := map[string]bool{}
	for i, m := range spec.EndToEnd {
		d := gated[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end_to_end %q: bad name, unit, bound or duplicate", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the benchmark %d (at most 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer %q: bad name, unit or duplicate", m.Name)
		}
		seen[m.Name] = true
	}
	namedDefs := defsByName(named)
	for wl, src := range gatedSource {
		for _, d := range gated {
			if _, ok := namedDefs[src[d.Name]]; !ok {
				t.Errorf("%s: gated metric %s has no named source (%q)", wl, d.Name, src[d.Name])
			}
		}
	}
}

// TestSmoke runs one-second versions of all four workloads, untraced and
// traced, and checks the shape of what they emit: every declared metric
// exactly once (report.set panics on a duplicate or undeclared name), finite,
// with its unit, and nothing failed. Verdicts that depend on how fast the
// box is — accuracy floors, the generator-lag limit — are not applied to
// runs this short.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := runOptions{workload: wl, seed: 3, seconds: 1, traced: traced, traceOut: filepath.Join(t.TempDir(), "trace.json")}
			res, err := run(io.Discard, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				v, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl, traced, name)
				case v.Unit != unit || !finite(v.Value):
					t.Errorf("%s traced=%v: metric %s = %v %q, want a finite value in %q", wl, traced, name, v.Value, v.Unit, unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, v.Value)
				}
			}
			if traced {
				if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no trace written to %s (%v)", wl, o.traceOut, err)
				}
			}
		}
	}
}
