package nn

import (
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// TestFusedPredictBitIdentical pins the fusion contract: absorbing
// conv→BN→ReLU (and dense→ReLU) chains into GEMM epilogues is a pure
// memory/locality optimisation — Predict must return bit-identical
// probabilities and classes to the unfused network, for every benchmark
// model.
func TestFusedPredictBitIdentical(t *testing.T) {
	const batch = 8
	for _, id := range AllModels {
		ref, x := buildPredictFixture(t, id, batch)
		refPreds := make([]int, batch)
		refConf := make([]float32, batch)
		ref.Predict(x, refPreds, refConf)

		net, _ := buildPredictFixture(t, id, batch)
		net.FuseInference()
		net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
		preds := make([]int, batch)
		conf := make([]float32, batch)
		net.Predict(x, preds, conf)

		for i := 0; i < batch; i++ {
			if preds[i] != refPreds[i] {
				t.Fatalf("%s: sample %d class %d != %d (unfused)", id, i, preds[i], refPreds[i])
			}
			if math.Float32bits(conf[i]) != math.Float32bits(refConf[i]) {
				t.Fatalf("%s: sample %d confidence %v != %v (unfused)", id, i, conf[i], refConf[i])
			}
		}
	}
}

// peakLive returns the most elements live at once in a planning walk — the
// floor under any placement of its buffers, whatever the planner.
func peakLive(m *MemPlan) int {
	peak := 0
	for _, at := range m.bufs {
		live := 0
		for _, b := range m.bufs {
			if b.prod <= at.prod && at.prod <= b.last {
				live += b.elems
			}
		}
		peak = max(peak, live)
	}
	return peak
}

// TestFusedInferPlanSmaller: absorbed layers declare no buffers, so the
// fused walk's declared footprint must be strictly smaller, the most it ever
// holds live never larger, and its planned arena never larger. (The arena
// peak itself may not move when a conv's im2col scratch sets it, as in
// VGG-16.)
func TestFusedInferPlanSmaller(t *testing.T) {
	for _, id := range AllModels {
		for _, batch := range []int{1, 8, 16} {
			plain := BuildScaled(id, batch, tensor.NewRNG(1))
			fused := BuildScaled(id, batch, tensor.NewRNG(1))
			fused.FuseInference()
			p, f := plain.InferPlan(), fused.InferPlan()
			if f.NaiveElems >= p.NaiveElems {
				t.Errorf("%s b=%d: fused walk declares %d elems, unfused %d — want strictly smaller",
					id, batch, f.NaiveElems, p.NaiveElems)
			}
			if fl, pl := peakLive(f), peakLive(p); fl > pl {
				t.Errorf("%s b=%d: fused walk holds %d elems live at its peak, unfused %d — fusion may never grow it",
					id, batch, fl, pl)
			}
			if f.ArenaElems > p.ArenaElems {
				t.Errorf("%s b=%d: fused inference arena %d elems, unfused %d — fusion may never grow the arena",
					id, batch, f.ArenaElems, p.ArenaElems)
			}
		}
	}
}

// TestFusedNetworkIsInferenceOnly: a fused network must refuse training
// walks — both the training memory plan and a training-mode forward.
func TestFusedNetworkIsInferenceOnly(t *testing.T) {
	net, x := buildPredictFixture(t, ResNet32, 8)
	net.FuseInference()
	mustPanic(t, "MemPlan", func() { net.MemPlan() })
	mustPanic(t, "train forward", func() { net.Forward(x, true) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on a fused network did not panic", what)
		}
	}()
	f()
}
