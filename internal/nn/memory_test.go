package nn

import (
	"math"
	"testing"

	"crossbow/internal/memplan"
	"crossbow/internal/tensor"
)

// planNet builds a scaled benchmark network without binding parameters.
func planNet(t *testing.T, id ModelID, batch int) *Network {
	t.Helper()
	return BuildScaled(id, batch, tensor.NewRNG(1))
}

func TestMemPlanValidAllModels(t *testing.T) {
	for _, id := range AllModels {
		net := planNet(t, id, 4)
		m := net.MemPlan()
		if err := m.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := memplan.CheckNoLiveOverlap(m.Graph, m.Plan); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := m.checkPlan(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if m.ArenaElems > m.NaiveElems {
			t.Fatalf("%s: arena %d elems exceeds naive %d", id, m.ArenaElems, m.NaiveElems)
		}
		if m.Savings() <= 0 {
			t.Fatalf("%s: no planned savings (arena %d, naive %d)", id, m.ArenaElems, m.NaiveElems)
		}
		if m.Buffers() == 0 || m.ActivationElems() == 0 {
			t.Fatalf("%s: empty plan", id)
		}
	}
}

func TestMemPlanFullScaleModels(t *testing.T) {
	// Full-scale planning must work without allocating the (multi-GB)
	// buffers themselves — this is what the auto-tuner's memory cap reads.
	for _, id := range AllModels {
		batch := 32
		if id == ResNet50 {
			batch = 8 // keep the plan walk fast
		}
		net := BuildFull(id, batch)
		m := net.MemPlan()
		if err := memplan.CheckNoLiveOverlap(m.Graph, m.Plan); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if m.Savings() <= 0.1 {
			t.Fatalf("%s: full-scale savings = %.3f, want the §4.5 backward-reuse scale", id, m.Savings())
		}
	}
}

func TestMemPlanKeyDistinguishesLayouts(t *testing.T) {
	a := planNet(t, ResNet32, 4).MemPlan().Key()
	b := planNet(t, ResNet32, 8).MemPlan().Key()
	c := planNet(t, VGG16, 4).MemPlan().Key()
	d := planNet(t, ResNet32, 4).MemPlan().Key()
	if a == b || a == c || b == c {
		t.Fatalf("distinct layouts share a key: %q %q %q", a, b, c)
	}
	if a != d {
		t.Fatalf("identical layouts must share a key: %q vs %q", a, d)
	}
}

// runTask zeroes g and runs one LossAndGrad over x/labels.
func runTask(net *Network, g []float32, x *tensor.Tensor, labels []int) float64 {
	tensor.ZeroSlice(g)
	return net.LossAndGrad(x, labels)
}

// TestArenaBitIdenticalToPrivate is the layer-level determinism pin of the
// memory plane: the same network structure produces bit-identical losses,
// gradients and activations whether its buffers are lazily private or
// planned arena slices — including when the arena is swapped for a
// different pooled arena between tasks (the online-planner migration case)
// and when a previously used arena returns with another task's stale
// contents in it.
func TestArenaBitIdenticalToPrivate(t *testing.T) {
	for _, id := range []ModelID{ResNet32, VGG16, LeNet, ResNet50} {
		const batch = 3
		ref := BuildScaled(id, batch, tensor.NewRNG(7))
		arn := BuildScaled(id, batch, tensor.NewRNG(7))

		w := ref.Init(tensor.NewRNG(11))
		gRef := make([]float32, ref.ParamSize())
		wArn := append([]float32(nil), w...)
		gArn := make([]float32, arn.ParamSize())
		ref.Bind(w, gRef)
		arn.Bind(wArn, gArn)

		arenaA := tensor.NewArena(arn.MemPlan().ArenaElems)
		arenaB := tensor.NewArena(arn.MemPlan().ArenaElems)

		r := tensor.NewRNG(23)
		shape := append([]int{batch}, ref.InShape...)
		xs := make([]*tensor.Tensor, 3)
		labels := make([][]int, 3)
		for i := range xs {
			xs[i] = tensor.New(shape...)
			for j := range xs[i].Data() {
				xs[i].Data()[j] = float32(r.NormFloat64())
			}
			labels[i] = make([]int, batch)
			for j := range labels[i] {
				labels[i][j] = r.Intn(ref.Classes)
			}
		}

		// Task sequence A, B, A: the second visit to arena A sees the stale
		// interior another task left behind, exactly like a pooled buffer.
		arenas := []tensor.Arena{arenaA, arenaB, arenaA}
		for i := range xs {
			lossRef := runTask(ref, gRef, xs[i], labels[i])
			arn.AttachArena(arenas[i])
			lossArn := runTask(arn, gArn, xs[i], labels[i])
			if lossRef != lossArn {
				t.Fatalf("%s task %d: loss %v (private) != %v (arena)", id, i, lossRef, lossArn)
			}
			for j := range gRef {
				if gRef[j] != gArn[j] {
					t.Fatalf("%s task %d: grad[%d] %v != %v", id, i, j, gRef[j], gArn[j])
				}
			}
			for j := range w {
				if w[j] != wArn[j] {
					t.Fatalf("%s task %d: weights diverged at %d", id, i, j)
				}
			}
		}

		// Evaluation path over the arena must match too.
		if cRef, cArn := ref.Evaluate(xs[0], labels[0]), arn.Evaluate(xs[0], labels[0]); cRef != cArn {
			t.Fatalf("%s: eval %d (private) != %d (arena)", id, cRef, cArn)
		}
	}
}

// TestAttachArenaToleratesDirtyArena pins the invariant arena migration
// rests on: no planned buffer carries state from one task to the next. The
// whole arena is filled with NaN before the first task and again between
// tasks — a single element read before the task wrote it, a conv padding
// position above all, would poison the loss and the gradients.
func TestAttachArenaToleratesDirtyArena(t *testing.T) {
	for _, id := range AllModels {
		const batch = 2
		ref := BuildScaled(id, batch, tensor.NewRNG(7))
		arn := BuildScaled(id, batch, tensor.NewRNG(7))
		w := ref.Init(tensor.NewRNG(11))
		gRef := make([]float32, ref.ParamSize())
		gArn := make([]float32, arn.ParamSize())
		wArn := append([]float32(nil), w...)
		ref.Bind(w, gRef)
		arn.Bind(wArn, gArn)

		dirty := make([]float32, arn.MemPlan().ArenaElems)
		arn.AttachArena(tensor.ArenaOf(dirty))

		x := tensor.New(append([]int{batch}, ref.InShape...)...)
		r := tensor.NewRNG(23)
		for task := 0; task < 3; task++ {
			for i := range dirty {
				dirty[i] = float32(math.NaN())
			}
			for i := range x.Data() {
				x.Data()[i] = float32(r.NormFloat64())
			}
			labels := []int{r.Intn(ref.Classes), r.Intn(ref.Classes)}
			if lr, la := runTask(ref, gRef, x, labels), runTask(arn, gArn, x, labels); lr != la {
				t.Fatalf("%s task %d: dirty arena diverged: loss %v vs %v", id, task, lr, la)
			}
			for i := range gRef {
				if gRef[i] != gArn[i] {
					t.Fatalf("%s task %d: dirty arena grad[%d]: %v vs %v", id, task, i, gRef[i], gArn[i])
				}
			}
		}
	}
}

func TestAttachArenaRejectsShortArena(t *testing.T) {
	net := planNet(t, LeNet, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undersized arena")
		}
	}()
	net.AttachArena(tensor.NewArena(net.MemPlan().ArenaElems - 1))
}

func TestAttachArenaIdempotent(t *testing.T) {
	net := planNet(t, LeNet, 2)
	a := tensor.NewArena(net.MemPlan().ArenaElems)
	net.AttachArena(a)
	if !net.ArenaAttached() {
		t.Fatal("arena not attached")
	}
	net.AttachArena(a) // must be a cheap no-op
}
