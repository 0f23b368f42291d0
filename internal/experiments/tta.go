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

// row is one time-to-accuracy measurement to make: the statistical plane's
// run as a core.Config, and the three inputs only the harness has. ttaRow
// fills in the harness's scale rules (doc.go); Figures 15 and 16 override
// some of them, and that is row data, not a second composition.
type row struct {
	cfg            core.Config
	paperBatch     int     // per-learner batch on the hardware plane (per GPU for S-SGD)
	window         int     // hardware-plane iterations the throughput is measured over
	solverMomentum float32 // momentum inside each learner's solver (core.Inputs.LocalMomentum)
}

// ttaRow is a row under the harness's scale rules: the statistical plane
// trains at statBatch(paperBatch) on trainSamples(k, batch) samples with
// seed 1, and the hardware plane is measured over 25 iterations with the
// released system's solver momentum 0.9 in the learners.
func ttaRow(model nn.ModelID, algo core.Algorithm, g, paperBatch, m, maxEpochs int, target float64) row {
	b := statBatch(paperBatch)
	return row{
		cfg: core.Config{
			Model: model, Algo: algo,
			GPUs: g, LearnersPerGPU: m, Batch: b,
			Momentum: 0.9, MaxEpochs: maxEpochs, TargetAccuracy: target, Seed: 1,
			TrainSamples: trainSamples(g*m, b),
		},
		paperBatch: paperBatch, window: 25, solverMomentum: 0.9,
	}
}

// trainSamples sizes the statistical plane's training set for k learners
// at batch b: 2048 samples, or eight batches per learner when that is more,
// up to 8192.
func trainSamples(k, b int) int {
	return min(max(2048, 8*k*b), 8192)
}

// SystemRun is one time-to-accuracy measurement: the statistical plane's
// configuration and what the two planes made of it.
type SystemRun struct {
	Config           core.Config // the statistical plane's run (Batch = statBatch(PaperBatch))
	PaperBatch       int         // per-learner batch on the hardware plane (per GPU for S-SGD)
	ThroughputImgSec float64
	EpochSeconds     float64 // FullSpec.TrainSamples / ThroughputImgSec
	EpochsToTarget   int     // Config.MaxEpochs when the target was not reached
	Reached          bool
	TTASeconds       float64 // EpochsToTarget × EpochSeconds
	BestAccuracy     float64
	Series           []metrics.EpochPoint
}

// System names the configuration a run stands for in Figures 10 and 11.
func (r SystemRun) System() System {
	switch {
	case r.Config.Algo == core.AlgoSSGD:
		return SysTensorFlow
	case r.Config.LearnersPerGPU == 1:
		return SysCrossbowM1
	}
	return SysCrossbow
}

// run composes time-to-accuracy for one row: the hardware plane's epoch
// seconds at paper scale times the statistical plane's epochs to the
// target (capped at MaxEpochs when it is not reached).
func run(r row) SystemRun {
	cfg := r.cfg
	out := SystemRun{Config: cfg, PaperBatch: r.paperBatch}
	if cfg.Algo == core.AlgoSSGD {
		out.ThroughputImgSec = engine.NewSSGD(cfg.Model, cfg.GPUs, r.paperBatch*cfg.GPUs).Throughput(r.window)
	} else {
		out.ThroughputImgSec = engine.New(engine.Config{
			Model: cfg.Model, GPUs: cfg.GPUs, LearnersPerGPU: cfg.LearnersPerGPU,
			Batch: r.paperBatch, Tau: cfg.Tau, Overlap: true,
		}).Throughput(r.window)
	}
	if out.ThroughputImgSec > 0 {
		out.EpochSeconds = float64(nn.FullSpec(cfg.Model).TrainSamples) / out.ThroughputImgSec
	}
	res := core.Train(cfg, core.Inputs{EpochSeconds: out.EpochSeconds, LocalMomentum: r.solverMomentum})
	out.Series = res.Series
	out.BestAccuracy = res.FinalAccuracy
	out.Reached = res.EpochsToTarget > 0
	out.EpochsToTarget = epochsOr(res.EpochsToTarget, cfg.MaxEpochs)
	out.TTASeconds = float64(out.EpochsToTarget) * out.EpochSeconds
	return out
}

// runAll runs rows in order.
func runAll(rows []row) []SystemRun {
	out := make([]SystemRun, len(rows))
	for i, r := range rows {
		out[i] = run(r)
	}
	return out
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

// Figure10GPUs returns the GPU counts the paper annotates Figure 10's bars
// at for a model, nil for a model it does not show: the only counts
// Figure11 accepts.
func Figure10GPUs(model nn.ModelID) []int { return fig10Configs[model].gpus }

// fig10Rows lists TensorFlow, Crossbow (m=1) and Crossbow (best m) at each
// GPU count, with the paper's annotated batch sizes. A count without them
// panics: its rows would train at batch 0 with no learners.
func fig10Rows(model nn.ModelID, gpus []int, maxEpochs int) []row {
	cfg := fig10Configs[model]
	target := AccuracyTargets[model]
	var rows []row
	for _, g := range gpus {
		bm, ok := cfg.cbB[g]
		if !ok {
			panic(fmt.Sprintf("experiments: Figures 10/11 have no %s configuration at g=%d (configured: %v)", model, g, cfg.gpus))
		}
		rows = append(rows,
			ttaRow(model, core.AlgoSSGD, g, cfg.tf[g], 1, maxEpochs, target),
			ttaRow(model, core.AlgoSMA, g, cfg.cb1[g], 1, maxEpochs, target),
			ttaRow(model, core.AlgoSMA, g, bm[0], bm[1], maxEpochs, target))
	}
	return rows
}

// Figure10 reproduces the headline time-to-accuracy comparison for one
// benchmark model: TensorFlow vs Crossbow (m=1) vs Crossbow (best m) over
// the GPU counts the paper evaluates, with the paper's annotated batch
// sizes.
func Figure10(model nn.ModelID, quick bool) []SystemRun {
	maxEpochs := 60
	if quick {
		maxEpochs = 25
	}
	return runAll(fig10Rows(model, fig10Configs[model].gpus, maxEpochs))
}

// PrintFigure10 writes the TTA bars with the paper's annotations.
func PrintFigure10(w io.Writer, model nn.ModelID, runs []SystemRun) {
	fmt.Fprintf(w, "Figure 10 — TTA(%.0f%%) for %s\n", AccuracyTargets[model]*100, model)
	fmt.Fprintf(w, "%4s %-12s %6s %3s %10s %8s %12s %8s\n",
		"gpus", "system", "batch", "m", "TTA(s)", "epochs", "imgs/s", "reached")
	for _, r := range runs {
		fmt.Fprintf(w, "%4d %-12s %6d %3d %10.1f %8d %12.0f %8v\n",
			r.Config.GPUs, r.System(), r.PaperBatch, r.Config.LearnersPerGPU, r.TTASeconds,
			r.EpochsToTarget, r.ThroughputImgSec, r.Reached)
	}
}

// Figure11 reproduces the accuracy-over-time curves for a model at a given
// GPU count: the three systems' convergence against simulated wall-clock.
func Figure11(model nn.ModelID, gpus int, quick bool) []SystemRun {
	maxEpochs := 40
	if quick {
		maxEpochs = 20
	}
	return runAll(fig10Rows(model, []int{gpus}, maxEpochs))
}

// PrintFigure11 writes accuracy-vs-time series.
func PrintFigure11(w io.Writer, model nn.ModelID, gpus int, runs []SystemRun) {
	fmt.Fprintf(w, "Figure 11 — test accuracy over time (%s, g=%d)\n", model, gpus)
	for _, r := range runs {
		fmt.Fprintf(w, "%-12s:", r.System())
		for _, p := range r.Series {
			fmt.Fprintf(w, " (%.0fs, %.2f)", p.TimeSec, p.TestAcc)
		}
		fmt.Fprintln(w)
	}
}

// fig1213Rows lists Crossbow at m ∈ {1,2,4} and the baseline on ResNet-32
// at the paper's b=64.
func fig1213Rows(gpus, maxEpochs int) []row {
	target := AccuracyTargets[nn.ResNet32]
	var rows []row
	for _, m := range []int{1, 2, 4} {
		rows = append(rows, ttaRow(nn.ResNet32, core.AlgoSMA, gpus, 64, m, maxEpochs, target))
	}
	return append(rows, ttaRow(nn.ResNet32, core.AlgoSSGD, gpus, 64, 1, maxEpochs, target))
}

// Figure1213 reproduces the efficiency trade-off study on ResNet-32 with
// the paper's b=64 (statistical plane: b=16): gpus=1 gives Figure 12,
// gpus=8 Figure 13. Each bar group shows hardware efficiency, statistical
// efficiency and TTA.
func Figure1213(gpus int, quick bool) []SystemRun {
	maxEpochs := 50
	if quick {
		maxEpochs = 25
	}
	return runAll(fig1213Rows(gpus, maxEpochs))
}

// PrintFigure1213 writes the three-panel summary.
func PrintFigure1213(w io.Writer, gpus int, runs []SystemRun) {
	fig := 12
	if gpus == 8 {
		fig = 13
	}
	fmt.Fprintf(w, "Figure %d — hardware vs statistical efficiency (ResNet-32, g=%d, b=64)\n", fig, gpus)
	fmt.Fprintf(w, "%-14s %12s %8s %10s %8s\n", "config", "imgs/s", "epochs", "TTA(s)", "reached")
	for _, r := range runs {
		label := fmt.Sprintf("crossbow m=%d", r.Config.LearnersPerGPU)
		if r.Config.Algo == core.AlgoSSGD {
			label = "tensorflow"
		}
		fmt.Fprintf(w, "%-14s %12.0f %8d %10.1f %8v\n",
			label, r.ThroughputImgSec, r.EpochsToTarget, r.TTASeconds, r.Reached)
	}
}

// fig14Rows sweeps Crossbow's learners per GPU from 1 to maxM at the
// paper's batch for the model (ResNet-32 b=64, VGG b=256).
func fig14Rows(model nn.ModelID, gpus, maxM, maxEpochs int) []row {
	paperBatch := 64
	if model == nn.VGG16 {
		paperBatch = 256
	}
	var rows []row
	for m := 1; m <= maxM; m++ {
		rows = append(rows, ttaRow(model, core.AlgoSMA, gpus, paperBatch, m, maxEpochs, AccuracyTargets[model]))
	}
	return rows
}

// Figure14 reproduces the learner-sweep validation of auto-tuning: TTA and
// throughput improvement against m, showing the throughput plateau predicts
// the TTA optimum. model is ResNet-32 (b=64) or VGG (b=256) in the paper.
func Figure14(model nn.ModelID, gpus int, quick bool) []SystemRun {
	maxM, maxEpochs := 5, 50
	if quick {
		maxM, maxEpochs = 4, 25
	}
	return runAll(fig14Rows(model, gpus, maxM, maxEpochs))
}

// PrintFigure14 writes the m-sweep; the gain is against the first (m=1)
// run's throughput.
func PrintFigure14(w io.Writer, model nn.ModelID, gpus int, runs []SystemRun) {
	fmt.Fprintf(w, "Figure 14 — TTA and throughput vs learners per GPU (%s, g=%d)\n", model, gpus)
	fmt.Fprintf(w, "%3s %12s %10s %10s %8s\n", "m", "imgs/s", "gain(%)", "TTA(s)", "epochs")
	for _, r := range runs {
		fmt.Fprintf(w, "%3d %12.0f %10.1f %10.1f %8d\n",
			r.Config.LearnersPerGPU, r.ThroughputImgSec, 100*(r.ThroughputImgSec/runs[0].ThroughputImgSec-1),
			r.TTASeconds, r.EpochsToTarget)
	}
}

// fig15Rows pairs SMA with EA-SGD on ResNet-32 at b=64 and the paper's
// best m per GPU count. Both run plain-SGD learners (solver momentum 0) to
// isolate the momentum term on the central average model — the only
// difference between the two algorithms; with solver momentum the effect is
// masked on the smoother synthetic task. Plain-SGD learners converge more
// slowly, so the target is a lower 65% that both can reach.
func fig15Rows(gpus []int, maxEpochs int) []row {
	bestM := map[int]int{1: 4, 2: 3, 4: 2, 8: 2}
	var rows []row
	for _, g := range gpus {
		for _, algo := range []core.Algorithm{core.AlgoSMA, core.AlgoEASGD} {
			r := ttaRow(nn.ResNet32, algo, g, 64, bestM[g], maxEpochs, 0.65)
			r.solverMomentum = 0
			rows = append(rows, r)
		}
	}
	return rows
}

// Figure15 reproduces the synchronisation-model ablation: SMA vs EA-SGD on
// ResNet-32 with the paper's best m per GPU count; the gap grows with the
// number of learners because momentum on the central average model keeps it
// moving as per-learner variance shrinks. The runs come in (SMA, EA-SGD)
// pairs per GPU count.
func Figure15(quick bool) []SystemRun {
	if quick {
		return runAll(fig15Rows([]int{1, 8}, 40))
	}
	return runAll(fig15Rows([]int{1, 2, 4, 8}, 60))
}

// PrintFigure15 writes the SMA/EA-SGD comparison.
func PrintFigure15(w io.Writer, runs []SystemRun) {
	fmt.Fprintf(w, "Figure 15 — SMA vs EA-SGD (ResNet-32, plain-SGD learners)\n")
	fmt.Fprintf(w, "%4s %3s %12s %12s %8s %8s %9s %9s\n",
		"gpus", "m", "SMA TTA(s)", "EASGD TTA(s)", "SMA ep.", "EA ep.", "SMA best", "EA best")
	for i := 0; i+1 < len(runs); i += 2 {
		sma, ea := runs[i], runs[i+1]
		fmt.Fprintf(w, "%4d %3d %12.1f %12.1f %8d %8d %8.1f%% %8.1f%%\n",
			sma.Config.GPUs, sma.Config.LearnersPerGPU, sma.TTASeconds, ea.TTASeconds,
			sma.EpochsToTarget, ea.EpochsToTarget, sma.BestAccuracy*100, ea.BestAccuracy*100)
	}
}

// fig16Rows sweeps the synchronisation period τ on ResNet-32, g=8, m=2,
// b=64. These rows measure the hardware plane over 30 iterations (Figure
// 17's window) and train on a fixed 4096 samples.
func fig16Rows(maxEpochs int) []row {
	var rows []row
	for _, tau := range []int{1, 2, 3, 4} {
		r := ttaRow(nn.ResNet32, core.AlgoSMA, 8, 64, 2, maxEpochs, AccuracyTargets[nn.ResNet32])
		r.cfg.Tau = tau
		r.cfg.TrainSamples = 4096
		r.window = 30
		rows = append(rows, r)
	}
	return rows
}

// Figure16 reproduces the synchronisation-frequency trade-off: ResNet-32,
// g=8, m=2; larger τ raises throughput but hurts convergence, so TTA is
// minimised at τ=1.
func Figure16(quick bool) []SystemRun {
	maxEpochs := 50
	if quick {
		maxEpochs = 25
	}
	return runAll(fig16Rows(maxEpochs))
}

// PrintFigure16 writes the τ trade-off.
func PrintFigure16(w io.Writer, runs []SystemRun) {
	fmt.Fprintf(w, "Figure 16 — TTA vs synchronisation period (ResNet-32, g=8, m=2)\n")
	fmt.Fprintf(w, "%4s %10s %8s %12s %8s\n", "tau", "TTA(s)", "epochs", "imgs/s", "reached")
	for _, r := range runs {
		fmt.Fprintf(w, "%4d %10.1f %8d %12.0f %8v\n",
			r.Config.Tau, r.TTASeconds, r.EpochsToTarget, r.ThroughputImgSec, r.Reached)
	}
}
