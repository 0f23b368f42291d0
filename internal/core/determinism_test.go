package core

import (
	"math"
	"runtime"
	"testing"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// determinismCfg is a small but real multi-learner ResNet-32 run exercising
// the batched conv kernels, the worker pool and the parallel SMA exchange.
func determinismCfg() Config {
	return Config{
		Model: nn.ResNet32, Algo: AlgoSMA,
		GPUs: 1, LearnersPerGPU: 2,
		Batch: 8, Momentum: 0.9,
		MaxEpochs: 2, Seed: 42,
		TrainSamples: 128, TestSamples: 64,
	}
}

func resultsBitIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Series) != len(b.Series) {
		t.Fatalf("%s: series length %d != %d", label, len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatalf("%s: epoch point %d differs: %+v vs %+v", label, i, a.Series[i], b.Series[i])
		}
	}
	if len(a.Model) != len(b.Model) {
		t.Fatalf("%s: model length %d != %d", label, len(a.Model), len(b.Model))
	}
	for i := range a.Model {
		if math.Float32bits(a.Model[i]) != math.Float32bits(b.Model[i]) {
			t.Fatalf("%s: model weight %d differs: %v vs %v", label, i, a.Model[i], b.Model[i])
		}
	}
}

// TestTrainBitIdenticalAcrossWorkerCounts is the determinism contract at the
// training level: the kernel worker pool partitions outputs disjointly, so
// the full training trajectory is bit-identical at any parallelism level.
func TestTrainBitIdenticalAcrossWorkerCounts(t *testing.T) {
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)

	tensor.SetWorkerBudget(1)
	base := Train(determinismCfg(), Inputs{})
	for _, workers := range []int{2, 5, 16} {
		tensor.SetWorkerBudget(workers)
		res := Train(determinismCfg(), Inputs{})
		resultsBitIdentical(t, "workers", base, res)
	}
}

// TestTrainBitIdenticalAcrossGOMAXPROCS re-runs the same training at
// GOMAXPROCS 1 vs N (learner goroutines plus kernel pool under real
// preemption) and requires identical results.
func TestTrainBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	prevP := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevP)

	runtime.GOMAXPROCS(1)
	one := Train(determinismCfg(), Inputs{})
	n := runtime.NumCPU() * 2 // oversubscribe even on single-core runners
	runtime.GOMAXPROCS(n)
	many := Train(determinismCfg(), Inputs{})
	resultsBitIdentical(t, "gomaxprocs", one, many)
}
