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
	"crossbow/internal/metrics"
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

// statMicro runs a micro statistical experiment (few epochs) for benches.
func statMicro(b *testing.B, cfg core.Config) *core.Result {
	b.Helper()
	if cfg.MaxEpochs == 0 {
		cfg.MaxEpochs = 4
	}
	cfg.Momentum = 0.9
	cfg.Seed = 1
	return core.Train(cfg, core.Inputs{})
}

// BenchmarkFigure3_StatisticalEfficiency contrasts small-batch vs
// large-batch S-SGD convergence and reports the accuracy gap after the
// epoch budget (the statistical-efficiency effect behind Figure 3).
func BenchmarkFigure3_StatisticalEfficiency(b *testing.B) {
	var small, large *core.Result
	for i := 0; i < b.N; i++ {
		small = statMicro(b, core.Config{Model: nn.ResNet32, Algo: core.AlgoSSGD, Batch: 16})
		large = statMicro(b, core.Config{Model: nn.ResNet32, Algo: core.AlgoSSGD, Batch: 256})
	}
	b.ReportMetric(metrics.BestAccuracy(small.Series)*100, "acc-b16-%")
	b.ReportMetric(metrics.BestAccuracy(large.Series)*100, "acc-b256-%")
}

// BenchmarkFigure9_BaselineConvergence runs one baseline epoch budget per
// model and reports the best accuracies (the curves the TTA targets come
// from).
func BenchmarkFigure9_BaselineConvergence(b *testing.B) {
	accs := map[nn.ModelID]float64{}
	for i := 0; i < b.N; i++ {
		for _, id := range nn.AllModels {
			res := statMicro(b, core.Config{Model: id, Algo: core.AlgoSSGD, Batch: 16, MaxEpochs: 3})
			accs[id] = metrics.BestAccuracy(res.Series)
		}
	}
	b.ReportMetric(accs[nn.ResNet32]*100, "resnet32-acc-%")
	b.ReportMetric(accs[nn.LeNet]*100, "lenet-acc-%")
}

// BenchmarkFigure10_TimeToAccuracy compares the three systems on ResNet-32
// at g=8 (micro scale) and reports the TTA ratio baseline/crossbow.
func BenchmarkFigure10_TimeToAccuracy(b *testing.B) {
	var tf, cb SystemRun
	for i := 0; i < b.N; i++ {
		tf = runSystem(nn.ResNet32, SysTensorFlow, 8, 128, 1, 14, 0.78)
		cb = runSystem(nn.ResNet32, SysCrossbowM1, 8, 64, 1, 14, 0.78)
	}
	if cb.TTASeconds > 0 {
		b.ReportMetric(tf.TTASeconds/cb.TTASeconds, "tta-ratio-tf/cb")
	}
}

// BenchmarkFigure11_Convergence regenerates accuracy-over-time curves for
// ResNet-32 at g=8 (micro) and reports Crossbow's final accuracy.
func BenchmarkFigure11_Convergence(b *testing.B) {
	var runs []SystemRun
	for i := 0; i < b.N; i++ {
		runs = []SystemRun{
			runSystem(nn.ResNet32, SysCrossbowM1, 8, 64, 1, 5, 0.99),
			runSystem(nn.ResNet32, SysCrossbow, 8, 64, 2, 5, 0.99),
		}
	}
	b.ReportMetric(metrics.BestAccuracy(runs[1].Series)*100, "cb-acc-%")
	b.ReportMetric(runs[1].EpochSeconds, "epoch-sec")
}

// BenchmarkFigure12_Tradeoff1GPU sweeps m on one GPU (micro) and reports
// the m=4 vs m=1 throughput gain — Figure 12a's hardware-efficiency effect.
func BenchmarkFigure12_Tradeoff1GPU(b *testing.B) {
	var t1, t4 float64
	for i := 0; i < b.N; i++ {
		t1 = engine.New(engine.Config{Model: nn.ResNet32, GPUs: 1, LearnersPerGPU: 1, Batch: 64, Overlap: true}).Throughput(20)
		t4 = engine.New(engine.Config{Model: nn.ResNet32, GPUs: 1, LearnersPerGPU: 4, Batch: 64, Overlap: true}).Throughput(20)
	}
	b.ReportMetric(t4/t1, "throughput-gain-m4/m1")
}

// BenchmarkFigure13_Tradeoff8GPU does the same at g=8 with the statistical
// side at micro scale, reporting the m=2 epochs-to-target.
func BenchmarkFigure13_Tradeoff8GPU(b *testing.B) {
	var r SystemRun
	for i := 0; i < b.N; i++ {
		r = runSystem(nn.ResNet32, SysCrossbow, 8, 64, 2, 5, 0.70)
	}
	b.ReportMetric(float64(r.EpochsToTarget), "epochs-m2")
	b.ReportMetric(r.ThroughputImgSec, "imgs/s")
}

// BenchmarkFigure14_LearnerSweep sweeps m (hardware plane only — the TTA
// side is covered by Figures 12/13) and reports where throughput peaks,
// the quantity Algorithm 2 keys on.
func BenchmarkFigure14_LearnerSweep(b *testing.B) {
	bestM := 0
	for i := 0; i < b.N; i++ {
		best := 0.0
		for m := 1; m <= 5; m++ {
			tp := engine.New(engine.Config{Model: nn.ResNet32, GPUs: 1, LearnersPerGPU: m, Batch: 16, Overlap: true}).Throughput(20)
			if tp > best {
				best, bestM = tp, m
			}
		}
	}
	b.ReportMetric(float64(bestM), "throughput-peak-m")
}

// BenchmarkFigure15_SMAvsEASGD contrasts SMA with EA-SGD at micro scale
// (8 learners) and reports the accuracy advantage of momentum on the
// central average model.
func BenchmarkFigure15_SMAvsEASGD(b *testing.B) {
	var sma, ea *core.Result
	for i := 0; i < b.N; i++ {
		sma = statMicro(b, core.Config{Model: nn.ResNet32, Algo: core.AlgoSMA, GPUs: 4, LearnersPerGPU: 2, Batch: 16, MaxEpochs: 5})
		ea = statMicro(b, core.Config{Model: nn.ResNet32, Algo: core.AlgoEASGD, GPUs: 4, LearnersPerGPU: 2, Batch: 16, MaxEpochs: 5})
	}
	b.ReportMetric(metrics.BestAccuracy(sma.Series)*100, "sma-acc-%")
	b.ReportMetric(metrics.BestAccuracy(ea.Series)*100, "easgd-acc-%")
}

// BenchmarkFigure16_SyncFrequencyTTA contrasts τ=1 and τ=4 statistically
// (micro) and reports the accuracy cost of infrequent synchronisation.
func BenchmarkFigure16_SyncFrequencyTTA(b *testing.B) {
	var t1, t4 *core.Result
	for i := 0; i < b.N; i++ {
		t1 = statMicro(b, core.Config{Model: nn.ResNet32, Algo: core.AlgoSMA, GPUs: 4, LearnersPerGPU: 2, Batch: 16, Tau: 1, MaxEpochs: 5})
		t4 = statMicro(b, core.Config{Model: nn.ResNet32, Algo: core.AlgoSMA, GPUs: 4, LearnersPerGPU: 2, Batch: 16, Tau: 4, MaxEpochs: 5})
	}
	b.ReportMetric(metrics.BestAccuracy(t1.Series)*100, "tau1-acc-%")
	b.ReportMetric(metrics.BestAccuracy(t4.Series)*100, "tau4-acc-%")
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
