package experiments

// One benchmark per table/figure of the paper's evaluation (§5). Each
// bench regenerates its experiment at reduced scale — fewer epochs, a
// subset of sweep points — and reports the figure's headline quantity as a
// custom metric, so `go test -bench=.` replays the whole evaluation in
// minutes. Paper-scale sweeps: `go run ./cmd/crossbow figures -exp <id> -full`.

import (
	"testing"

	"crossbow/internal/autotune"
	"crossbow/internal/core"
	"crossbow/internal/engine"
	"crossbow/internal/nn"
)

// BenchmarkTable1_ModelInventory regenerates Table 1 (model/dataset
// inventory) and reports ResNet-50's model size.
func BenchmarkTable1_ModelInventory(b *testing.B) {
	var rows []Table1Row
	for i := 0; i < b.N; i++ {
		rows = Table1()
	}
	for _, r := range rows {
		if r.Model == nn.ResNet50 {
			b.ReportMetric(r.ModelMB, "resnet50-MB")
		}
	}
}

// BenchmarkFigure2_HardwareEfficiency regenerates the baseline scaling
// curves and reports the 8-GPU speed-up at constant per-GPU batch.
func BenchmarkFigure2_HardwareEfficiency(b *testing.B) {
	var rows []Fig2Row
	for i := 0; i < b.N; i++ {
		rows = Figure2()
	}
	for _, r := range rows {
		if r.AggregateBatch == 1024 && r.GPUs == 8 {
			b.ReportMetric(r.Speedup, "speedup-g8-b1024")
		}
		if r.AggregateBatch == 64 && r.GPUs == 8 {
			b.ReportMetric(r.Speedup, "speedup-g8-b64")
		}
	}
}

// BenchmarkFigure3_StatisticalEfficiency contrasts small-batch vs
// large-batch S-SGD convergence and reports the accuracy gap after the
// epoch budget (the statistical-efficiency effect behind Figure 3).
func BenchmarkFigure3_StatisticalEfficiency(b *testing.B) {
	var small, large *core.Result
	for i := 0; i < b.N; i++ {
		small = core.Train(core.Config{Model: nn.ResNet32, Algo: core.AlgoSSGD, Batch: 16, MaxEpochs: 4}, core.Inputs{})
		large = core.Train(core.Config{Model: nn.ResNet32, Algo: core.AlgoSSGD, Batch: 256, MaxEpochs: 4}, core.Inputs{})
	}
	b.ReportMetric(small.FinalAccuracy*100, "acc-b16-%")
	b.ReportMetric(large.FinalAccuracy*100, "acc-b256-%")
}

// BenchmarkFigure9_BaselineConvergence runs one baseline epoch budget per
// model and reports the best accuracies (the curves the TTA targets come
// from).
func BenchmarkFigure9_BaselineConvergence(b *testing.B) {
	accs := map[nn.ModelID]float64{}
	for i := 0; i < b.N; i++ {
		for _, id := range nn.AllModels {
			accs[id] = core.Train(core.Config{Model: id, Algo: core.AlgoSSGD, Batch: 16, MaxEpochs: 3}, core.Inputs{}).FinalAccuracy
		}
	}
	b.ReportMetric(accs[nn.ResNet32]*100, "resnet32-acc-%")
	b.ReportMetric(accs[nn.LeNet]*100, "lenet-acc-%")
}

// micro runs the figure rows picked by index through run, each capped at
// maxEpochs: the figure's own composition at a fraction of its cost.
func micro(b *testing.B, rows []row, maxEpochs int, pick ...int) []SystemRun {
	b.Helper()
	var runs []SystemRun
	for i := 0; i < b.N; i++ {
		runs = runs[:0]
		for _, j := range pick {
			r := rows[j]
			r.cfg.MaxEpochs = maxEpochs
			runs = append(runs, run(r))
		}
	}
	return runs
}

// BenchmarkFigure10_TimeToAccuracy runs Figure 10's ResNet-32 rows at g=8
// (micro) and reports the TTA ratio baseline/crossbow (best m).
func BenchmarkFigure10_TimeToAccuracy(b *testing.B) {
	runs := micro(b, fig10Rows(nn.ResNet32, []int{8}, 0), 2, 0, 2)
	b.ReportMetric(runs[0].TTASeconds/runs[1].TTASeconds, "tta-ratio-tf/cb")
}

// BenchmarkFigure11_Convergence runs Figure 11's Crossbow (best m) row for
// ResNet-32 at g=8 (micro) and reports its best accuracy and epoch time.
func BenchmarkFigure11_Convergence(b *testing.B) {
	runs := micro(b, fig10Rows(nn.ResNet32, []int{8}, 0), 3, 2)
	b.ReportMetric(runs[0].BestAccuracy*100, "cb-acc-%")
	b.ReportMetric(runs[0].EpochSeconds, "epoch-sec")
}

// BenchmarkFigure12_Tradeoff1GPU runs Figure 12's m=1 and m=4 rows (micro)
// and reports the throughput gain — Figure 12a's hardware-efficiency
// effect.
func BenchmarkFigure12_Tradeoff1GPU(b *testing.B) {
	runs := micro(b, fig1213Rows(1, 0), 1, 0, 2)
	b.ReportMetric(runs[1].ThroughputImgSec/runs[0].ThroughputImgSec, "throughput-gain-m4/m1")
}

// BenchmarkFigure13_Tradeoff8GPU runs Figure 13's m=2 row (micro) and
// reports its epochs to target and throughput.
func BenchmarkFigure13_Tradeoff8GPU(b *testing.B) {
	runs := micro(b, fig1213Rows(8, 0), 3, 1)
	b.ReportMetric(float64(runs[0].EpochsToTarget), "epochs-m2")
	b.ReportMetric(runs[0].ThroughputImgSec, "imgs/s")
}

// BenchmarkFigure14_LearnerSweep runs Figure 14's m sweep (ResNet-32, g=1,
// one epoch each) and reports where throughput peaks, the quantity
// Algorithm 2 keys on.
func BenchmarkFigure14_LearnerSweep(b *testing.B) {
	runs := micro(b, fig14Rows(nn.ResNet32, 1, 5, 0), 1, 0, 1, 2, 3, 4)
	best := runs[0]
	for _, r := range runs {
		if r.ThroughputImgSec > best.ThroughputImgSec {
			best = r
		}
	}
	b.ReportMetric(float64(best.Config.LearnersPerGPU), "throughput-peak-m")
}

// BenchmarkFigure15_SMAvsEASGD runs Figure 15's SMA/EA-SGD pair at g=4
// (micro) and reports the accuracy advantage of momentum on the central
// average model.
func BenchmarkFigure15_SMAvsEASGD(b *testing.B) {
	runs := micro(b, fig15Rows([]int{4}, 0), 5, 0, 1)
	b.ReportMetric(runs[0].BestAccuracy*100, "sma-acc-%")
	b.ReportMetric(runs[1].BestAccuracy*100, "easgd-acc-%")
}

// BenchmarkFigure16_SyncFrequencyTTA runs Figure 16's τ=1 and τ=4 rows
// (micro) and reports the accuracy cost of infrequent synchronisation.
func BenchmarkFigure16_SyncFrequencyTTA(b *testing.B) {
	runs := micro(b, fig16Rows(0), 2, 0, 3)
	b.ReportMetric(runs[0].BestAccuracy*100, "tau1-acc-%")
	b.ReportMetric(runs[1].BestAccuracy*100, "tau4-acc-%")
}

// BenchmarkFigure17_SyncOverhead regenerates the sync-overhead grid and
// reports the τ=1 vs no-sync throughput gap at m=1.
func BenchmarkFigure17_SyncOverhead(b *testing.B) {
	var rows []Fig17Row
	for i := 0; i < b.N; i++ {
		rows = Figure17()
	}
	var t1, tInf float64
	for _, r := range rows {
		if r.M == 1 && r.Tau == "1" {
			t1 = r.Throughput
		}
		if r.M == 1 && r.Tau == "inf" {
			tInf = r.Throughput
		}
	}
	b.ReportMetric(100*(tInf/t1-1), "nosync-gain-%")
}

// BenchmarkAblation_Autotune measures Algorithm 2's full decision loop.
func BenchmarkAblation_Autotune(b *testing.B) {
	var chosen int
	for i := 0; i < b.N; i++ {
		chosen = autotune.Tune(engine.Config{Model: nn.ResNet32, GPUs: 1, Batch: 16, Overlap: true}).Chosen
	}
	b.ReportMetric(float64(chosen), "chosen-m")
}

// BenchmarkAblation_OverlapVsBarrier quantifies the §4.2 overlap design:
// iteration time with global sync overlapped vs a global barrier.
func BenchmarkAblation_OverlapVsBarrier(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = engine.New(engine.Config{Model: nn.ResNet32, GPUs: 8, LearnersPerGPU: 2, Batch: 16, Overlap: true}).RunIterations(30)
		off = engine.New(engine.Config{Model: nn.ResNet32, GPUs: 8, LearnersPerGPU: 2, Batch: 16, Overlap: false}).RunIterations(30)
	}
	b.ReportMetric(off/on, "barrier/overlap-time")
}

// BenchmarkAblation_SMAStep measures the raw cost of one SMA step over
// 8 replicas of a half-million-parameter model (the optimiser's hot path).
func BenchmarkAblation_SMAStep(b *testing.B) {
	const k, n = 8, 500_000
	ws := make([][]float32, k)
	gs := make([][]float32, k)
	for j := 0; j < k; j++ {
		ws[j] = make([]float32, n)
		gs[j] = make([]float32, n)
	}
	s := core.NewSMA(core.SMAConfig{LearnRate: 0.1, Momentum: 0.9, LocalMomentum: 0.9}, ws[0], k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(ws, gs)
	}
	b.SetBytes(int64(k * n * 4))
}
