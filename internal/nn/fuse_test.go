package nn

import (
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// TestFusedPredictBitIdentical pins the fusion contract: absorbing
// conv→BN→ReLU (and dense→ReLU) chains into GEMM epilogues is a pure
// memory/locality optimisation — Predict must return bit-identical
// probabilities and classes to the unfused network, in both kernel modes,
// for every benchmark model.
func TestFusedPredictBitIdentical(t *testing.T) {
	const batch = 8
	for _, mode := range []tensor.KernelMode{tensor.Deterministic, tensor.Fast} {
		for _, id := range AllModels {
			ref, x := buildPredictFixture(t, id, batch)
			ref.SetKernelMode(mode)
			refPreds := make([]int, batch)
			refConf := make([]float32, batch)
			ref.Predict(x, refPreds, refConf)

			net, _ := buildPredictFixture(t, id, batch)
			net.SetKernelMode(mode)
			net.FuseInference()
			net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
			preds := make([]int, batch)
			conf := make([]float32, batch)
			net.Predict(x, preds, conf)

			for i := 0; i < batch; i++ {
				if preds[i] != refPreds[i] {
					t.Fatalf("%s/%s: sample %d class %d != %d (unfused)", id, mode, i, preds[i], refPreds[i])
				}
				if math.Float32bits(conf[i]) != math.Float32bits(refConf[i]) {
					t.Fatalf("%s/%s: sample %d confidence %v != %v (unfused)", id, mode, i, conf[i], refConf[i])
				}
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

// synthClassData fills x with samples drawn from per-class template
// patterns plus noise, returning the labels — linearly separable enough
// that a briefly trained network becomes confident.
func synthClassData(r *tensor.RNG, templates [][]float32, x *tensor.Tensor, labels []int, classes int) {
	vol := x.Len() / len(labels)
	xd := x.Data()
	for i := range labels {
		c := r.Intn(classes)
		labels[i] = c
		tpl := templates[c]
		for j := 0; j < vol; j++ {
			xd[i*vol+j] = tpl[j] + 0.3*float32(r.NormFloat64())
		}
	}
}

// TestQuantizedTopOneAgreement is the acceptance gate for the int8 path:
// on a briefly trained ResNet-32, the quantized+fused network must agree
// with the f32 network on ≥99% of top-1 predictions over a synthesized
// evaluation set — the same gate the serving plane applies before
// publishing a quantized replica.
func TestQuantizedTopOneAgreement(t *testing.T) {
	const (
		batch    = 16
		classes  = 10
		steps    = 40
		lr       = 0.05
		evalN    = 16 // eval batches: 256 samples
		minAgree = 0.99
	)
	train := BuildScaled(ResNet32, batch, tensor.NewRNG(1))
	w := train.Init(tensor.NewRNG(2))
	g := make([]float32, train.ParamSize())
	train.Bind(w, g)

	vol := tensor.Volume(train.InShape)
	tr := tensor.NewRNG(5)
	templates := make([][]float32, classes)
	for c := range templates {
		templates[c] = make([]float32, vol)
		for j := range templates[c] {
			templates[c][j] = float32(tr.NormFloat64())
		}
	}
	x := tensor.New(append([]int{batch}, train.InShape...)...)
	labels := make([]int, batch)
	for s := 0; s < steps; s++ {
		synthClassData(tr, templates, x, labels, classes)
		clear(g)
		train.LossAndGrad(x, labels)
		for i, gi := range g {
			w[i] -= lr * gi
		}
	}

	f32 := BuildScaled(ResNet32, batch, tensor.NewRNG(1))
	f32.Bind(w, make([]float32, f32.ParamSize()))
	q := BuildScaled(ResNet32, batch, tensor.NewRNG(1))
	q.FuseInference()
	q.Bind(w, make([]float32, q.ParamSize()))
	q.QuantizeWeights()

	er := tensor.NewRNG(7)
	fp := make([]int, batch)
	qp := make([]int, batch)
	agree, total := 0, 0
	for b := 0; b < evalN; b++ {
		synthClassData(er, templates, x, labels, classes)
		f32.Predict(x, fp, nil)
		q.Predict(x, qp, nil)
		for i := range fp {
			if fp[i] == qp[i] {
				agree++
			}
			total++
		}
	}
	if frac := float64(agree) / float64(total); frac < minAgree {
		t.Fatalf("quantized top-1 agreement %.4f (%d/%d) below %.2f", frac, agree, total, minAgree)
	} else {
		t.Logf("quantized top-1 agreement %.4f (%d/%d)", frac, agree, total)
	}
}
