package crossbow

import (
	"math"
	"strings"
	"testing"

	"crossbow/internal/engine"
	"crossbow/internal/metrics"
	"crossbow/internal/tensor"
)

// TestRejectedConfigKeepsWorkerBudget: KernelThreads sets a process-wide
// budget, so a Config that Train refuses must leave it as it found it.
func TestRejectedConfigKeepsWorkerBudget(t *testing.T) {
	b := tensor.WorkerBudget()
	t.Cleanup(func() { tensor.SetWorkerBudget(b) })
	for name, cfg := range map[string]Config{
		"fcfs-cluster":     {Scheduler: FCFS, Servers: 2},
		"bad-scheduler":    {Scheduler: "nope"},
		"tcp-no-peers":     {Transport: TransportTCP},
		"publish-no-every": {PublishAddr: "127.0.0.1:0"},
	} {
		cfg.Model, cfg.KernelThreads = LeNet, b+3
		if _, err := Train(cfg); err == nil {
			t.Fatalf("%s: Train accepted an invalid Config", name)
		}
		if got := tensor.WorkerBudget(); got != b {
			t.Fatalf("%s: rejected Config moved the worker budget %d -> %d", name, b, got)
		}
	}
}

func TestTrainPublicAPI(t *testing.T) {
	res, err := Train(Config{
		Model:          LeNet,
		GPUs:           1,
		LearnersPerGPU: 2,
		Batch:          8,
		MaxEpochs:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d epochs", len(res.Series))
	}
	if res.ThroughputImgSec <= 0 || res.EpochSeconds <= 0 {
		t.Fatalf("hardware plane missing: %v img/s, %v s/epoch", res.ThroughputImgSec, res.EpochSeconds)
	}
	// Time axis is simulated hardware time.
	if res.Series[0].TimeSec != res.EpochSeconds {
		t.Fatalf("epoch 1 time %v, want %v", res.Series[0].TimeSec, res.EpochSeconds)
	}
}

func TestTrainRequiresModel(t *testing.T) {
	if _, err := Train(Config{}); err == nil {
		t.Fatal("expected error for missing model")
	}
	if _, err := Train(Config{Model: Model("bogus")}); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

// TestUnknownAlgorithmRejected: an algorithm outside the four is a Config
// error from Train and Throughput, returned before any set-up (it used to
// reach the optimiser factory and panic there). "asgd" is one of them.
func TestUnknownAlgorithmRejected(t *testing.T) {
	for _, algo := range []Algorithm{"bogus", "asgd"} {
		if _, err := Train(Config{Model: LeNet, Algo: algo, MaxEpochs: 1}); err == nil || !strings.Contains(err.Error(), string(algo)) {
			t.Errorf("Train with Algo %q: err %v, want one naming the algorithm", algo, err)
		}
		if _, err := Throughput(Config{Model: LeNet, Algo: algo}); err == nil || !strings.Contains(err.Error(), string(algo)) {
			t.Errorf("Throughput with Algo %q: err %v, want one naming the algorithm", algo, err)
		}
	}
}

func TestTrainAutoTune(t *testing.T) {
	res, err := Train(Config{
		Model:          LeNet,
		GPUs:           1,
		LearnersPerGPU: AutoTune,
		Batch:          4,
		MaxEpochs:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LearnersPerGPU < 1 {
		t.Fatalf("auto-tune chose m=%d", res.LearnersPerGPU)
	}
	if len(res.TuneHistory) == 0 {
		t.Fatal("no tuning history recorded")
	}
}

// TestAutoTuneMeasuresAtConfiguredTau: AutoTune picks m by the costs the
// run pays — every decision's throughput is engine.New's for that m at the
// configured τ, over Tune's 20-iteration window.
func TestAutoTuneMeasuresAtConfiguredTau(t *testing.T) {
	cfg := Config{Model: ResNet32, GPUs: 8, LearnersPerGPU: AutoTune, Batch: 16, Tau: 3}
	if err := cfg.FillDefaults(); err != nil {
		t.Fatal(err)
	}
	_, hist := resolveLearners(cfg)
	if len(hist) == 0 {
		t.Fatal("no tuning history recorded")
	}
	for _, d := range hist {
		want := engine.New(engine.Config{
			Model: ResNet32, GPUs: 8, LearnersPerGPU: d.M, Batch: 16, Tau: 3, Overlap: true,
		}).Throughput(20)
		if math.Float64bits(d.Throughput) != math.Float64bits(want) {
			t.Errorf("m=%d: tuned at %v images/s, the engine at τ=3 measures %v", d.M, d.Throughput, want)
		}
	}
}

func TestThroughputAPI(t *testing.T) {
	cb, err := Throughput(Config{Model: ResNet32, GPUs: 4, LearnersPerGPU: 2, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	tf, err := Throughput(Config{Model: ResNet32, Algo: SSGD, GPUs: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if cb <= 0 || tf <= 0 {
		t.Fatalf("throughputs %v / %v", cb, tf)
	}
}

// TestComparatorsPricedOnSMAPlane: the hardware plane simulates SMA and
// the S-SGD baseline only, so EASGD and SMAHierarchical are priced on SMA's
// plane (Result.ThroughputImgSec) and differ from it only in the
// statistical plane.
func TestComparatorsPricedOnSMAPlane(t *testing.T) {
	tp := map[Algorithm]float64{}
	for _, algo := range []Algorithm{SMA, SMAHierarchical, EASGD, SSGD} {
		v, err := Throughput(Config{Model: ResNet32, Algo: algo, GPUs: 4, LearnersPerGPU: 2, Batch: 16})
		if err != nil {
			t.Fatal(err)
		}
		tp[algo] = v
	}
	if tp[SMAHierarchical] != tp[SMA] || tp[EASGD] != tp[SMA] {
		t.Fatalf("sma %v, sma-hier %v, easgd %v images/s: the comparators must be priced on SMA's plane",
			tp[SMA], tp[SMAHierarchical], tp[EASGD])
	}
	if tp[SSGD] == tp[SMA] {
		t.Fatalf("ssgd and sma both %v images/s: S-SGD has its own plane", tp[SSGD])
	}
}

func TestTuneLearnersAPI(t *testing.T) {
	m, hist := TuneLearners(ResNet32, 1, 16)
	if m < 1 || len(hist) == 0 {
		t.Fatalf("m=%d history=%v", m, hist)
	}
}

func TestMetricsTTAOnSyntheticSeries(t *testing.T) {
	series := []metrics.EpochPoint{
		{Epoch: 1, TimeSec: 5, TestAcc: 0.5},
		{Epoch: 2, TimeSec: 10, TestAcc: 0.9},
		{Epoch: 3, TimeSec: 15, TestAcc: 0.91},
	}
	// Epoch 2's window {0.5, 0.9} has median 0.7 < 0.85; epoch 3's
	// {0.5, 0.9, 0.91} has median 0.9, so TTA is epoch 3's time.
	tt, ok := metrics.TTA(series, 0.85)
	if !ok || tt != 15 {
		t.Fatalf("TTA = %v, %v", tt, ok)
	}
}
