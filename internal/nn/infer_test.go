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
	skipUnderRace(t)
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

// walkLayers visits every primitive layer, descending into residual blocks.
func walkLayers(ls []Layer, f func(Layer)) {
	for _, l := range ls {
		if r, ok := l.(*Residual); ok {
			walkLayers(r.branch, f)
			walkLayers(r.shortcut, f)
			continue
		}
		f(l)
	}
}

// keepCol makes every conv of net lower into its column matrix in
// forward-only passes too, as before the GEMM could read x in place.
func keepCol(net *Network) *Network {
	walkLayers(net.layers, func(l Layer) {
		if c, ok := l.(*Conv2D); ok {
			c.viaCol = true
		}
	})
	return net
}

// TestColFreeForwardMatchesCol: a forward-only pass whose convs read x in
// place (tensor.Lowering.GemmConv) produces the logits of the pass through
// the column matrix bit for bit — all four scaled models, fused and unfused,
// batches with whole and partial last blocks, on private buffers and on the
// forward-only arena, which must have lost its largest buffer. A training
// forward then a backward after it (Evaluate runs between training steps)
// still sees a fresh col. Where the host has no kernel for it both networks
// take the same path and the arena comparison is skipped.
func TestColFreeForwardMatchesCol(t *testing.T) {
	for _, id := range AllModels {
		for _, batch := range []int{1, 5, 8} {
			for _, fuse := range []bool{false, true} {
				ref, x := buildPredictFixture(t, id, batch)
				keepCol(ref)
				net, _ := buildPredictFixture(t, id, batch)
				if fuse {
					ref.FuseInference()
					net.FuseInference()
				}
				want := append([]float32(nil), ref.Forward(x, false).Data()...)
				if got := net.Forward(x, false).Data(); crcFloats(got) != crcFloats(want) {
					t.Fatalf("%s b=%d fused=%v: col-free logits differ from the column-matrix forward's", id, batch, fuse)
				}
				arena, refArena := net.InferPlan().ArenaElems, ref.InferPlan().ArenaElems
				free := false
				walkLayers(net.layers, func(l Layer) {
					if c, ok := l.(*Conv2D); ok && c.colFree() {
						free = true
					}
				})
				if free && arena >= refArena {
					t.Errorf("%s b=%d fused=%v: forward-only arena %d elems without col, %d with", id, batch, fuse, arena, refArena)
				}
				dirty := tensor.NewArena(arena)
				for i := range dirty.Data() {
					dirty.Data()[i] = float32(math.NaN())
				}
				net.AttachInferenceArena(dirty)
				if got := net.Forward(x, false).Data(); crcFloats(got) != crcFloats(want) {
					t.Fatalf("%s b=%d fused=%v: col-free logits on the planned arena differ", id, batch, fuse)
				}
			}
		}
	}
}

// TestColFreeForwardLeavesNoStaleCol: a backward pass after a forward-only
// forward — which wrote no col — lowers its input itself, and gives the
// gradients of the training forward's backward.
func TestColFreeForwardLeavesNoStaleCol(t *testing.T) {
	const batch = 4
	shape := []int{8, 8, 8}
	r := tensor.NewRNG(5)
	var grads [2][]float32
	x, dy := randTensor(r, actShape(batch, shape)...), randTensor(r, actShape(batch, shape)...)
	w := make([]float32, NewConv2D(batch, shape, 8, 3, 1, 1).NumParams())
	for i := range w {
		w[i] = float32(r.NormFloat64())
	}
	for v, train := range []bool{true, false} {
		c := NewConv2D(batch, shape, 8, 3, 1, 1)
		grads[v] = make([]float32, len(w))
		c.Bind(w, grads[v])
		c.Forward(randTensor(r, actShape(batch, shape)...), true) // col now holds another input
		c.Forward(x, train)
		grads[v] = append(grads[v], c.Backward(dy).Data()...)
	}
	if crcFloats(grads[0]) != crcFloats(grads[1]) {
		t.Fatal("backward after a forward-only forward differs from backward after a training forward")
	}
}
