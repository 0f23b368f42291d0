package crossbow

import (
	"testing"

	"crossbow/internal/metrics"
)

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
