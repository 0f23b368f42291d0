package experiments

import (
	"fmt"
	"io"

	"crossbow/internal/core"
	"crossbow/internal/engine"
	"crossbow/internal/metrics"
	"crossbow/internal/nn"
)

// System names the three configurations Figure 10 compares.
type System string

// The compared systems.
const (
	SysTensorFlow System = "tensorflow" // S-SGD baseline
	SysCrossbowM1 System = "crossbow-m1"
	SysCrossbow   System = "crossbow" // best m per GPU
)

// SystemRun is one (system, g) measurement composing both planes.
type SystemRun struct {
	System           System
	Model            nn.ModelID
	GPUs             int
	PaperBatch       int // per-GPU/per-learner batch at paper scale (hardware plane)
	StatBatch        int // per-learner batch in the statistical plane
	M                int
	ThroughputImgSec float64
	EpochSeconds     float64
	EpochsToTarget   int
	Reached          bool
	TTASeconds       float64
	Series           []metrics.EpochPoint
}

// runSystem executes one system configuration end to end.
func runSystem(model nn.ModelID, sys System, g, paperBatch, m, maxEpochs int, target float64) SystemRun {
	spec := nn.FullSpec(model)
	run := SystemRun{
		System: sys, Model: model, GPUs: g,
		PaperBatch: paperBatch, StatBatch: statBatch(paperBatch), M: m,
	}
	// Hardware plane at paper scale.
	if sys == SysTensorFlow {
		run.ThroughputImgSec = engine.NewSSGD(engine.SSGDConfig{
			Model: model, GPUs: g, AggregateBatch: paperBatch * g,
		}).Throughput(25)
	} else {
		run.ThroughputImgSec = engine.New(engine.Config{
			Model: model, GPUs: g, LearnersPerGPU: m, Batch: paperBatch, Overlap: true,
		}).Throughput(25)
	}
	if run.ThroughputImgSec > 0 {
		run.EpochSeconds = float64(spec.TrainSamples) / run.ThroughputImgSec
	}

	// Statistical plane on the scaled model.
	algo := core.AlgoSMA
	if sys == SysTensorFlow {
		algo = core.AlgoSSGD
	}
	k := g * m
	samples := 2048
	if need := 8 * k * run.StatBatch; need > samples {
		samples = need
		if samples > 8192 {
			samples = 8192
		}
	}
	res := core.Train(core.TrainConfig{
		Model: model, Algo: algo,
		GPUs: g, LearnersPerGPU: m, BatchPerLearner: run.StatBatch,
		Momentum: 0.9, LocalMomentum: 0.9, // the released system's solver momentum
		MaxEpochs: maxEpochs, TargetAcc: target, Seed: 1,
		TrainSamples: samples, EpochSeconds: run.EpochSeconds,
	})
	run.Series = res.Series
	run.Reached = res.EpochsToTarget > 0
	run.EpochsToTarget = epochsOr(res.EpochsToTarget, maxEpochs)
	run.TTASeconds = float64(run.EpochsToTarget) * run.EpochSeconds
	return run
}

// fig10Config holds the per-model batch/m settings the paper annotates on
// Figure 10's bars (per-GPU batch for TensorFlow; per-learner batch and
// best m for Crossbow).
type fig10Config struct {
	gpus []int
	tf   map[int]int
	cb1  map[int]int
	cbB  map[int][2]int // g → {batch, m}
}

var fig10Configs = map[nn.ModelID]fig10Config{
	nn.ResNet32: {
		gpus: []int{1, 2, 4, 8},
		tf:   map[int]int{1: 512, 2: 256, 4: 256, 8: 128},
		cb1:  map[int]int{1: 256, 2: 256, 4: 256, 8: 64},
		cbB:  map[int][2]int{1: {64, 4}, 2: {64, 3}, 4: {64, 2}, 8: {64, 2}},
	},
	nn.VGG16: {
		gpus: []int{1, 2, 4, 8},
		tf:   map[int]int{1: 256, 2: 128, 4: 64, 8: 32},
		cb1:  map[int]int{1: 256, 2: 256, 4: 256, 8: 256},
		cbB:  map[int][2]int{1: {256, 3}, 2: {256, 2}, 4: {128, 2}, 8: {256, 2}},
	},
	nn.ResNet50: {
		gpus: []int{8},
		tf:   map[int]int{8: 32},
		cb1:  map[int]int{8: 32},
		cbB:  map[int][2]int{8: {16, 2}},
	},
	nn.LeNet: {
		gpus: []int{1},
		tf:   map[int]int{1: 4},
		cb1:  map[int]int{1: 4},
		cbB:  map[int][2]int{1: {2, 2}},
	},
}

// Figure10 reproduces the headline time-to-accuracy comparison for one
// benchmark model: TensorFlow vs Crossbow (m=1) vs Crossbow (best m) over
// the GPU counts the paper evaluates, with the paper's annotated batch
// sizes.
func Figure10(model nn.ModelID, quick bool) []SystemRun {
	cfg := fig10Configs[model]
	maxEpochs := 60
	if quick {
		maxEpochs = 25
	}
	target := AccuracyTargets[model]
	var out []SystemRun
	for _, g := range cfg.gpus {
		out = append(out, runSystem(model, SysTensorFlow, g, cfg.tf[g], 1, maxEpochs, target))
		out = append(out, runSystem(model, SysCrossbowM1, g, cfg.cb1[g], 1, maxEpochs, target))
		bm := cfg.cbB[g]
		out = append(out, runSystem(model, SysCrossbow, g, bm[0], bm[1], maxEpochs, target))
	}
	return out
}

// PrintFigure10 writes the TTA bars with the paper's annotations.
func PrintFigure10(w io.Writer, model nn.ModelID, runs []SystemRun) {
	fmt.Fprintf(w, "Figure 10 — TTA(%.0f%%) for %s\n", AccuracyTargets[model]*100, model)
	fmt.Fprintf(w, "%4s %-12s %6s %3s %10s %8s %12s %8s\n",
		"gpus", "system", "batch", "m", "TTA(s)", "epochs", "imgs/s", "reached")
	for _, r := range runs {
		fmt.Fprintf(w, "%4d %-12s %6d %3d %10.1f %8d %12.0f %8v\n",
			r.GPUs, r.System, r.PaperBatch, r.M, r.TTASeconds, r.EpochsToTarget,
			r.ThroughputImgSec, r.Reached)
	}
}

// Figure11 reproduces the accuracy-over-time curves for a model at a given
// GPU count: the three systems' convergence against simulated wall-clock.
func Figure11(model nn.ModelID, gpus int, quick bool) []SystemRun {
	cfg := fig10Configs[model]
	maxEpochs := 40
	if quick {
		maxEpochs = 20
	}
	target := AccuracyTargets[model]
	bm := cfg.cbB[gpus]
	return []SystemRun{
		runSystem(model, SysTensorFlow, gpus, cfg.tf[gpus], 1, maxEpochs, target),
		runSystem(model, SysCrossbowM1, gpus, cfg.cb1[gpus], 1, maxEpochs, target),
		runSystem(model, SysCrossbow, gpus, bm[0], bm[1], maxEpochs, target),
	}
}

// PrintFigure11 writes accuracy-vs-time series.
func PrintFigure11(w io.Writer, model nn.ModelID, gpus int, runs []SystemRun) {
	fmt.Fprintf(w, "Figure 11 — test accuracy over time (%s, g=%d)\n", model, gpus)
	for _, r := range runs {
		fmt.Fprintf(w, "%-12s:", r.System)
		for _, p := range r.Series {
			fmt.Fprintf(w, " (%.0fs, %.2f)", p.TimeSec, p.TestAcc)
		}
		fmt.Fprintln(w)
	}
}

// Fig1213Row is one bar group of Figures 12/13: hardware efficiency,
// statistical efficiency and TTA for Crossbow m ∈ {1,2,4} and the baseline.
type Fig1213Row struct {
	Label            string
	ThroughputImgSec float64
	EpochsToTarget   int
	TTASeconds       float64
	Reached          bool
}

// Figure1213 reproduces the efficiency trade-off study on ResNet-32 with
// the paper's b=64 (statistical plane: b=16): gpus=1 gives Figure 12,
// gpus=8 Figure 13.
func Figure1213(gpus int, quick bool) []Fig1213Row {
	maxEpochs := 50
	if quick {
		maxEpochs = 25
	}
	target := AccuracyTargets[nn.ResNet32]
	var rows []Fig1213Row
	for _, m := range []int{1, 2, 4} {
		r := runSystem(nn.ResNet32, SysCrossbow, gpus, 64, m, maxEpochs, target)
		rows = append(rows, Fig1213Row{
			Label:            fmt.Sprintf("crossbow m=%d", m),
			ThroughputImgSec: r.ThroughputImgSec,
			EpochsToTarget:   r.EpochsToTarget,
			TTASeconds:       r.TTASeconds,
			Reached:          r.Reached,
		})
	}
	tf := runSystem(nn.ResNet32, SysTensorFlow, gpus, 64, 1, maxEpochs, target)
	rows = append(rows, Fig1213Row{
		Label:            "tensorflow",
		ThroughputImgSec: tf.ThroughputImgSec,
		EpochsToTarget:   tf.EpochsToTarget,
		TTASeconds:       tf.TTASeconds,
		Reached:          tf.Reached,
	})
	return rows
}

// PrintFigure1213 writes the three-panel summary.
func PrintFigure1213(w io.Writer, gpus int, rows []Fig1213Row) {
	fig := 12
	if gpus == 8 {
		fig = 13
	}
	fmt.Fprintf(w, "Figure %d — hardware vs statistical efficiency (ResNet-32, g=%d, b=64)\n", fig, gpus)
	fmt.Fprintf(w, "%-14s %12s %8s %10s %8s\n", "config", "imgs/s", "epochs", "TTA(s)", "reached")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12.0f %8d %10.1f %8v\n",
			r.Label, r.ThroughputImgSec, r.EpochsToTarget, r.TTASeconds, r.Reached)
	}
}

// Fig14Row is one point of Figure 14: TTA and throughput improvement vs
// the number of learners per GPU.
type Fig14Row struct {
	M                 int
	ThroughputImgSec  float64
	ThroughputGainPct float64 // vs m=1
	TTASeconds        float64
	EpochsToTarget    int
}

// Figure14 reproduces the learner-sweep validation of auto-tuning: TTA and
// throughput improvement against m, showing the throughput plateau predicts
// the TTA optimum. model is ResNet-32 (b=64) or VGG (b=256) in the paper.
func Figure14(model nn.ModelID, gpus int, quick bool) []Fig14Row {
	paperBatch := 64
	if model == nn.VGG16 {
		paperBatch = 256
	}
	maxM := 5
	maxEpochs := 50
	if quick {
		maxM = 4
		maxEpochs = 25
	}
	target := AccuracyTargets[model]
	var rows []Fig14Row
	var base float64
	for m := 1; m <= maxM; m++ {
		r := runSystem(model, SysCrossbow, gpus, paperBatch, m, maxEpochs, target)
		if m == 1 {
			base = r.ThroughputImgSec
		}
		rows = append(rows, Fig14Row{
			M:                 m,
			ThroughputImgSec:  r.ThroughputImgSec,
			ThroughputGainPct: 100 * (r.ThroughputImgSec/base - 1),
			TTASeconds:        r.TTASeconds,
			EpochsToTarget:    r.EpochsToTarget,
		})
	}
	return rows
}

// PrintFigure14 writes the m-sweep.
func PrintFigure14(w io.Writer, model nn.ModelID, gpus int, rows []Fig14Row) {
	fmt.Fprintf(w, "Figure 14 — TTA and throughput vs learners per GPU (%s, g=%d)\n", model, gpus)
	fmt.Fprintf(w, "%3s %12s %10s %10s %8s\n", "m", "imgs/s", "gain(%)", "TTA(s)", "epochs")
	for _, r := range rows {
		fmt.Fprintf(w, "%3d %12.0f %10.1f %10.1f %8d\n",
			r.M, r.ThroughputImgSec, r.ThroughputGainPct, r.TTASeconds, r.EpochsToTarget)
	}
}

// Fig15Row compares SMA against EA-SGD at one GPU count.
type Fig15Row struct {
	GPUs            int
	M               int
	SMATTASeconds   float64
	EASGDTTASeconds float64
	SMAEpochs       int
	EASGDEpochs     int
	SMABestAcc      float64
	EASGDBestAcc    float64
}

// Figure15 reproduces the synchronisation-model ablation: SMA vs EA-SGD on
// ResNet-32 with the paper's best m per GPU count; the gap grows with the
// number of learners because momentum on the central average model keeps it
// moving as per-learner variance shrinks. To isolate that momentum term —
// the only difference between the two algorithms — both run with plain-SGD
// learners here (with solver momentum enabled the effect is masked on the
// smoother synthetic task).
func Figure15(quick bool) []Fig15Row {
	gpus := []int{1, 2, 4, 8}
	if quick {
		gpus = []int{1, 8}
	}
	bestM := map[int]int{1: 4, 2: 3, 4: 2, 8: 2}
	maxEpochs := 60
	if quick {
		maxEpochs = 40
	}
	// Plain-SGD learners converge more slowly than the momentum-solver
	// configuration of the other figures, so this ablation uses a lower
	// target that both algorithms can reach within the epoch budget.
	target := 0.65
	var rows []Fig15Row
	for _, g := range gpus {
		m := bestM[g]
		b := statBatch(64)
		k := g * m
		samples := 2048
		if need := 8 * k * b; need > samples {
			samples = need
			if samples > 8192 {
				samples = 8192
			}
		}
		epochSec := engine.New(engine.Config{
			Model: nn.ResNet32, GPUs: g, LearnersPerGPU: m, Batch: 64, Overlap: true,
		}).EpochSeconds(nn.FullSpec(nn.ResNet32).TrainSamples, 25)
		row := Fig15Row{GPUs: g, M: m}
		for _, algo := range []core.Algorithm{core.AlgoSMA, core.AlgoEASGD} {
			res := core.Train(core.TrainConfig{
				Model: nn.ResNet32, Algo: algo,
				GPUs: g, LearnersPerGPU: m, BatchPerLearner: b,
				Momentum: 0.9, LocalMomentum: 0, // isolate the z-momentum term
				MaxEpochs: maxEpochs, TargetAcc: target, Seed: 1,
				TrainSamples: samples, EpochSeconds: epochSec,
			})
			e := epochsOr(res.EpochsToTarget, maxEpochs)
			if algo == core.AlgoSMA {
				row.SMAEpochs, row.SMATTASeconds = e, float64(e)*epochSec
				row.SMABestAcc = res.FinalAccuracy
			} else {
				row.EASGDEpochs, row.EASGDTTASeconds = e, float64(e)*epochSec
				row.EASGDBestAcc = res.FinalAccuracy
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintFigure15 writes the SMA/EA-SGD comparison.
func PrintFigure15(w io.Writer, rows []Fig15Row) {
	fmt.Fprintf(w, "Figure 15 — SMA vs EA-SGD (ResNet-32, plain-SGD learners)\n")
	fmt.Fprintf(w, "%4s %3s %12s %12s %8s %8s %9s %9s\n",
		"gpus", "m", "SMA TTA(s)", "EASGD TTA(s)", "SMA ep.", "EA ep.", "SMA best", "EA best")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %3d %12.1f %12.1f %8d %8d %8.1f%% %8.1f%%\n",
			r.GPUs, r.M, r.SMATTASeconds, r.EASGDTTASeconds,
			r.SMAEpochs, r.EASGDEpochs, r.SMABestAcc*100, r.EASGDBestAcc*100)
	}
}

// Fig16Row is one synchronisation-period measurement.
type Fig16Row struct {
	Tau              int
	TTASeconds       float64
	EpochsToTarget   int
	ThroughputImgSec float64
	Reached          bool
}

// Figure16 reproduces the synchronisation-frequency trade-off: ResNet-32,
// g=8, m=2; larger τ raises throughput but hurts convergence, so TTA is
// minimised at τ=1.
func Figure16(quick bool) []Fig16Row {
	taus := []int{1, 2, 3, 4}
	maxEpochs := 50
	if quick {
		maxEpochs = 25
	}
	target := AccuracyTargets[nn.ResNet32]
	var rows []Fig16Row
	for _, tau := range taus {
		tp := engine.New(engine.Config{
			Model: nn.ResNet32, GPUs: 8, LearnersPerGPU: 2, Batch: 64,
			Tau: tau, Overlap: true,
		}).Throughput(30)
		epochSec := float64(nn.FullSpec(nn.ResNet32).TrainSamples) / tp
		res := core.Train(core.TrainConfig{
			Model: nn.ResNet32, Algo: core.AlgoSMA,
			GPUs: 8, LearnersPerGPU: 2, BatchPerLearner: statBatch(64),
			Momentum: 0.9, LocalMomentum: 0.9,
			Tau: tau, MaxEpochs: maxEpochs, TargetAcc: target, Seed: 1,
			TrainSamples: 4096, EpochSeconds: epochSec,
		})
		e := epochsOr(res.EpochsToTarget, maxEpochs)
		rows = append(rows, Fig16Row{
			Tau:              tau,
			TTASeconds:       float64(e) * epochSec,
			EpochsToTarget:   e,
			ThroughputImgSec: tp,
			Reached:          res.EpochsToTarget > 0,
		})
	}
	return rows
}

// PrintFigure16 writes the τ trade-off.
func PrintFigure16(w io.Writer, rows []Fig16Row) {
	fmt.Fprintf(w, "Figure 16 — TTA vs synchronisation period (ResNet-32, g=8, m=2)\n")
	fmt.Fprintf(w, "%4s %10s %8s %12s %8s\n", "tau", "TTA(s)", "epochs", "imgs/s", "reached")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %10.1f %8d %12.0f %8v\n",
			r.Tau, r.TTASeconds, r.EpochsToTarget, r.ThroughputImgSec, r.Reached)
	}
}
