package core

import (
	"testing"

	"crossbow/internal/data"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// evalFixture is a test set of the given size for model id and a trainer-
// shaped evaluator over it: fused lanes at evalSizes' batch.
func evalFixture(id nn.ModelID, testSamples int) *evaluator {
	cfg := data.ForModel(id, 3, 0)
	cfg.Train, cfg.Test = 0, testSamples
	_, test := data.Synthesize(cfg)
	_, batch := evalSizes(test.Len())
	return newEvaluator(test, batch, func() *nn.Network { return newEvalNet(id, batch, 5) })
}

// perturbedModel returns w0 of model id with N(0, 2²) noise on its trained
// weights, so predictions spread over the classes and two seeds score
// differently. Batch-norm running statistics (the state ranges) keep their
// initial values, so every variance stays positive.
func perturbedModel(id nn.ModelID, seed uint64) []float32 {
	net := nn.BuildScaled(id, 1, tensor.NewRNG(1))
	w := net.Init(tensor.NewRNG(13))
	state := make([]bool, len(w))
	for _, r := range net.StateRanges() {
		for i := r[0]; i < r[1]; i++ {
			state[i] = true
		}
	}
	rng := tensor.NewRNG(seed)
	for i := range w {
		if !state[i] {
			w[i] += float32(rng.NormFloat64()) * 2
		}
	}
	return w
}

// TestEvaluateLanesMatchSerial pins the lanes' exactness: dealing the
// evaluated prefix's batches to 2, 3 or 4 lanes counts exactly what one lane
// walking them all counts, at test sets of one batch (100 samples), of the
// 128-sample prefix (200) and of 512 samples (32 batches, which 3 lanes do
// not split evenly). The lanes under test are one evaluator reused across
// two models and every lane count, as Train reuses them across epochs; the
// oracle is a fresh one-lane evaluator per model, so a lane left bound to
// the previous model is seen.
func TestEvaluateLanesMatchSerial(t *testing.T) {
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)

	for _, id := range []nn.ModelID{nn.ResNet32, nn.LeNet} {
		models := [][]float32{perturbedModel(id, 21), perturbedModel(id, 22)}
		for _, size := range []int{100, 200, 512} {
			lanes := evalFixture(id, size)
			oracle := make([]float64, len(models))
			for m, w := range models {
				tensor.SetWorkerBudget(1)
				oracle[m] = evalFixture(id, size).accuracyLanes(w, 1)
				if oracle[m] == 0 || oracle[m] == 1 {
					t.Fatalf("%s n=%d model %d: accuracy %v, want predictions that vary", id, size, m, oracle[m])
				}
			}
			if oracle[0] == oracle[1] {
				t.Fatalf("%s n=%d: both models score %v; a stale lane binding would go unseen", id, size, oracle[0])
			}
			for m, w := range models {
				for _, k := range []int{1, 2, 3, 4} {
					tensor.SetWorkerBudget(k)
					if got := lanes.accuracyLanes(w, k); got != oracle[m] {
						t.Errorf("%s n=%d model %d: %d lanes score %v, one lane %v", id, size, m, k, got, oracle[m])
					}
				}
				// The trainer's entry point: a lane per worker at the budget.
				tensor.SetWorkerBudget(2)
				if got := lanes.accuracy(w); got != oracle[m] {
					t.Errorf("%s n=%d model %d: accuracy at budget 2 is %v, one lane %v", id, size, m, got, oracle[m])
				}
			}
		}
	}
}

// TestEvaluateAllocs pins the lanes' allocations at budget 2 after warm-up:
// a small constant per call — the kernel pool's hand-off of the second
// lane — the same at 128 and at 512 samples, so nothing per batch. The
// epoch loop's Result.Mem.AllocsPerIter counts evaluation too.
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations")
	}
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(2)

	const perCall = 4
	w := perturbedModel(nn.ResNet32, 21)
	var allocs []float64
	for _, size := range []int{128, 512} {
		ev := evalFixture(nn.ResNet32, size)
		ev.accuracyLanes(w, 2) // warm: builds the lanes
		allocs = append(allocs, testing.AllocsPerRun(10, func() { ev.accuracyLanes(w, 2) }))
	}
	// 512 samples are 24 batches more than 128: one allocation per batch
	// would show as 12 or more a call.
	if allocs[0] > perCall || allocs[1] > perCall || allocs[1] > allocs[0]+1 {
		t.Errorf("allocs per evaluation at 128 / 512 samples: %v / %v, want ≤ %d and the same", allocs[0], allocs[1], perCall)
	}
}
