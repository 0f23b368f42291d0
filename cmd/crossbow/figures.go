package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"crossbow"
	"crossbow/internal/experiments"
	"crossbow/internal/tensor"
)

// params are the flag values an experiment may read.
type params struct {
	model crossbow.Model
	gpus  int
	quick bool
}

// experiment is one row of the table the -exp flag selects from.
type experiment struct {
	name string
	run  func(w io.Writer, p params)
}

// table lists every experiment in the order -exp all runs them. The -exp
// usage string, the selection and the unknown-name error all read it.
var table = []experiment{
	{"table1", func(w io.Writer, p params) { experiments.PrintTable1(w, experiments.Table1()) }},
	{"fig2", func(w io.Writer, p params) { experiments.PrintFigure2(w, experiments.Figure2()) }},
	{"fig3", func(w io.Writer, p params) { experiments.PrintFigure3(w, experiments.Figure3(p.quick)) }},
	{"fig9", func(w io.Writer, p params) { experiments.PrintFigure9(w, experiments.Figure9(p.quick)) }},
	{"fig10", func(w io.Writer, p params) {
		experiments.PrintFigure10(w, p.model, experiments.Figure10(p.model, p.quick))
	}},
	{"fig11", func(w io.Writer, p params) {
		experiments.PrintFigure11(w, p.model, p.gpus, experiments.Figure11(p.model, p.gpus, p.quick))
	}},
	{"fig12", func(w io.Writer, p params) { experiments.PrintFigure1213(w, 1, experiments.Figure1213(1, p.quick)) }},
	{"fig13", func(w io.Writer, p params) { experiments.PrintFigure1213(w, 8, experiments.Figure1213(8, p.quick)) }},
	{"fig14", func(w io.Writer, p params) {
		experiments.PrintFigure14(w, p.model, p.gpus, experiments.Figure14(p.model, p.gpus, p.quick))
	}},
	{"fig15", func(w io.Writer, p params) { experiments.PrintFigure15(w, experiments.Figure15(p.quick)) }},
	{"fig16", func(w io.Writer, p params) { experiments.PrintFigure16(w, experiments.Figure16(p.quick)) }},
	{"fig17", func(w io.Writer, p params) { experiments.PrintFigure17(w, experiments.Figure17()) }},
	{"autotune", func(w io.Writer, p params) {
		m, hist := crossbow.TuneLearners(p.model, p.gpus, 16)
		fmt.Fprintf(w, "Auto-tuner (Alg 2) for %s on %d GPUs, b=16\n", p.model, p.gpus)
		for _, d := range hist {
			fmt.Fprintf(w, "  m=%d -> %.0f images/s\n", d.M, d.Throughput)
		}
		fmt.Fprintf(w, "chosen: m=%d\n", m)
	}},
}

// names lists what -exp accepts, for the usage string and the error.
func names() string {
	var ns []string
	for _, e := range table {
		ns = append(ns, e.name)
	}
	return strings.Join(append(ns, "all"), ", ")
}

// selectExperiments resolves an -exp value: one name selects that row,
// "all" the whole table in order, anything else nothing.
func selectExperiments(exp string) []experiment {
	if exp == "all" {
		return table
	}
	for i, e := range table {
		if e.name == exp {
			return table[i : i+1]
		}
	}
	return nil
}

// figuresCmd regenerates the tables and figures of the paper's evaluation
// (§5) and Algorithm 2's decision trace; internal/experiments documents the
// scale mapping. Everything it prints is simulated or seeded, so equal
// flags give equal output. How fast the system runs on this machine is the
// repo benchmark's to measure: bash benchmark/run.sh.
//
//	crossbow figures -exp all            # quick pass over every experiment
//	crossbow figures -exp fig10 -model resnet32 -full
//	crossbow figures -exp fig14 -model vgg16 -gpus 8
//	crossbow figures -exp fig10 -cpuprofile cpu.out -memprofile mem.out
func figuresCmd(fs *flag.FlagSet) runner {
	var model string
	var gpus int
	modelFlag(fs, &model, "resnet32")
	gpusFlag(fs, &gpus, 8)
	exp := fs.String("exp", "all", "experiment: "+names())
	full := fs.Bool("full", false, "paper-scale parameter sweeps (slow); default is a quick pass")
	threads := fs.Int("threads", 0, "kernel worker pool size (0: NumCPU or $CROSSBOW_PARALLELISM)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	return func(stdout, stderr io.Writer) int {
		selected := selectExperiments(*exp)
		if selected == nil {
			fmt.Fprintf(stderr, "unknown experiment %q; valid: %s\n", *exp, names())
			return 2
		}
		p := params{model: crossbow.Model(model), gpus: gpus, quick: !*full}
		if !slices.Contains(crossbow.Models, p.model) {
			fmt.Fprintf(stderr, "unknown model %q\n", model)
			return 2
		}
		// Figure 11 runs Figure 10's rows, which the paper annotates only at
		// some GPU counts.
		fig11 := slices.ContainsFunc(selected, func(e experiment) bool { return e.name == "fig11" })
		if gs := experiments.Figure10GPUs(p.model); fig11 && !slices.Contains(gs, p.gpus) {
			fmt.Fprintf(stderr, "fig11: %s is configured at -gpus %v, not %d\n", p.model, gs, p.gpus)
			return 2
		}

		if *threads > 0 {
			tensor.SetWorkerBudget(*threads)
		}
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
				return 1
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
				return 1
			}
			defer pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			defer func() {
				f, err := os.Create(*memprofile)
				if err != nil {
					fmt.Fprintf(stderr, "memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(stderr, "memprofile: %v\n", err)
				}
			}()
		}

		for _, e := range selected {
			ep := p
			if *exp == "all" && e.name == "fig10" {
				// Under -exp all, Figure 10 runs on ResNet-32 whatever -model
				// says; -model steers fig11, fig14 and autotune there.
				ep.model = crossbow.ResNet32
			}
			start := time.Now()
			e.run(stdout, ep)
			fmt.Fprintf(stdout, "[%s took %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
		return 0
	}
}
