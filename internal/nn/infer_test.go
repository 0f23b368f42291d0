package nn

import (
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// buildPredictFixture returns a bound network plus a deterministic input
// batch and expected labels drawn from a sibling network running on the
// full training plan.
func buildPredictFixture(t *testing.T, id ModelID, batch int) (*Network, *tensor.Tensor) {
	t.Helper()
	net := BuildScaled(id, batch, tensor.NewRNG(1))
	w := net.Init(tensor.NewRNG(2))
	g := make([]float32, net.ParamSize())
	net.Bind(w, g)
	x := tensor.New(append([]int{batch}, net.InShape...)...)
	r := tensor.NewRNG(3)
	for i := range x.Data() {
		x.Data()[i] = float32(r.NormFloat64())
	}
	return net, x
}

// TestInferPlanSmallerThanTraining pins the point of the forward-only plan:
// without the backward chain, slot reuse is aggressive enough that the
// serving arena is strictly smaller than the training arena for every
// benchmark model. It also holds the b=8 serving arenas below what they
// measured while conv.col was an exclusive (pinned) range outside the
// planner's reach — 91 % of ResNet-32's was pinned col.
func TestInferPlanSmallerThanTraining(t *testing.T) {
	pinnedEra := map[ModelID]int{LeNet: 63360, ResNet32: 286208, VGG16: 152832, ResNet50: 153088}
	for _, id := range AllModels {
		net := BuildScaled(id, 8, tensor.NewRNG(1))
		full, infer := net.MemPlan(), net.InferPlan()
		if infer.ArenaElems >= full.ArenaElems {
			t.Errorf("%s: inference arena %d elems, training arena %d — want strictly smaller",
				id, infer.ArenaElems, full.ArenaElems)
		}
		if infer.ArenaElems >= pinnedEra[id] {
			t.Errorf("%s: inference arena %d elems, no smaller than the %d it took with col pinned",
				id, infer.ArenaElems, pinnedEra[id])
		}
		if full.Key() == infer.Key() {
			t.Errorf("%s: training and inference plans share key %q", id, full.Key())
		}
	}
}

// TestPredictBitIdenticalAcrossPlans pins the inference plan's correctness:
// Predict against a forward-only arena produces bit-identical probabilities
// and classes to the same network running on lazily allocated private
// buffers (the path every existing correctness test exercises).
func TestPredictBitIdenticalAcrossPlans(t *testing.T) {
	const batch = 8
	for _, id := range AllModels {
		ref, x := buildPredictFixture(t, id, batch)
		refPreds := make([]int, batch)
		refConf := make([]float32, batch)
		ref.Predict(x, refPreds, refConf) // private lazy buffers

		net, _ := buildPredictFixture(t, id, batch)
		net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
		preds := make([]int, batch)
		conf := make([]float32, batch)
		net.Predict(x, preds, conf)

		for i := 0; i < batch; i++ {
			if preds[i] != refPreds[i] {
				t.Fatalf("%s: sample %d class %d != %d (private)", id, i, preds[i], refPreds[i])
			}
			if math.Float32bits(conf[i]) != math.Float32bits(refConf[i]) {
				t.Fatalf("%s: sample %d confidence %v != %v (private)", id, i, conf[i], refConf[i])
			}
		}
	}
}

// TestPredictPathAllocs is the serving analogue of TestHotPathAllocs: the
// forward-only Predict path against an attached inference arena must be
// allocation-free in steady state at kernel worker budget 1.
func TestPredictPathAllocs(t *testing.T) {
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(1)

	const batch = 8
	for _, id := range AllModels {
		net, x := buildPredictFixture(t, id, batch)
		net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
		preds := make([]int, batch)
		conf := make([]float32, batch)
		net.Predict(x, preds, conf) // warm up
		if avg := testing.AllocsPerRun(20, func() { net.Predict(x, preds, conf) }); avg > hotPathAllocThreshold {
			t.Errorf("%s: %.2f allocs/Predict, want ~0", id, avg)
		}
	}
}
