package nn

import (
	"testing"

	"crossbow/internal/memplan"
	"crossbow/internal/tensor"
)

// Allocation-regression smoke (CI): steady-state training iterations must
// perform ~0 heap allocations on the forward/backward hot path. Measured at
// kernel worker budget 1, where every kernel takes its serial path, and at
// budget 2 on tasks no kernel of which splits — a kernel that does split
// intrinsically allocates ParallelFor's goroutine closures, which the memory
// benchmark reports separately.
//
// The thresholds are deliberately tight (0 today, 0.5 to absorb measurement
// jitter): a regression here means some per-call allocation crept back into
// a layer, a kernel or the arena attach path.

const hotPathAllocThreshold = 0.5

// skipUnderRace skips an allocation count under the race detector, whose
// shadow allocations read as one or two a call.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's shadow allocations")
	}
}

func measureTaskAllocs(t *testing.T, id ModelID, batch int, attach bool) float64 {
	t.Helper()
	skipUnderRace(t)
	net := BuildScaled(id, batch, tensor.NewRNG(1))
	w := net.Init(tensor.NewRNG(2))
	g := make([]float32, net.ParamSize())
	net.Bind(w, g)
	if attach {
		net.AttachArena(tensor.NewArena(net.MemPlan().ArenaElems))
	}
	x := tensor.New(append([]int{batch}, net.InShape...)...)
	r := tensor.NewRNG(3)
	for i := range x.Data() {
		x.Data()[i] = float32(r.NormFloat64())
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(net.Classes)
	}
	net.LossAndGrad(x, labels) // warm up (lazy buffers, gemm pools)
	return testing.AllocsPerRun(20, func() {
		tensor.ZeroSlice(g)
		net.LossAndGrad(x, labels)
	})
}

func TestHotPathAllocsArena(t *testing.T) {
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(1)
	for _, id := range AllModels {
		if avg := measureTaskAllocs(t, id, 4, true); avg > hotPathAllocThreshold {
			t.Errorf("%s (arena): %.2f allocs/iteration, want ~0", id, avg)
		}
	}
}

func TestHotPathAllocsPrivate(t *testing.T) {
	// The lazy-private path (reference trainer, replay) must be just as
	// clean once its buffers exist.
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(1)
	if avg := measureTaskAllocs(t, ResNet32, 4, false); avg > hotPathAllocThreshold {
		t.Errorf("resnet32 (private): %.2f allocs/iteration, want ~0", avg)
	}
}

// TestHotPathAllocsBudget2 runs the small tasks at worker budget 2 with one
// task in flight, where every kernel may split but the grain leaves each in
// one chunk (train-lenet-fcfs's b = 2, and ResNet-32 at b = 2): a kernel
// that runs as one chunk must not build the closure a split would need.
func TestHotPathAllocsBudget2(t *testing.T) {
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(2)
	tensor.EnterTask()
	defer tensor.ExitTask()
	for _, id := range []ModelID{LeNet, ResNet32} {
		if avg := measureTaskAllocs(t, id, 2, true); avg > hotPathAllocThreshold {
			t.Errorf("%s b=2 at budget 2: %.2f allocs/iteration, want ~0", id, avg)
		}
	}
}

func TestHotPathAllocsPooledAttach(t *testing.T) {
	skipUnderRace(t)
	// The full per-task sequence the runtime executes: check an arena out
	// of the shared pool, attach, train, release. Steady state must stay
	// allocation-free even as arenas migrate between pool slots.
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(1)

	const batch = 4
	net := BuildScaled(ResNet32, batch, tensor.NewRNG(1))
	w := net.Init(tensor.NewRNG(2))
	g := make([]float32, net.ParamSize())
	net.Bind(w, g)
	m := net.MemPlan()
	pool := memplan.NewOnlinePlanner()
	x := tensor.New(append([]int{batch}, net.InShape...)...)
	labels := make([]int, batch)

	task := func() {
		b := pool.Acquire(m.Key(), m.ArenaBytes(), 1)
		net.AttachArena(tensor.ArenaOf(b.Data))
		tensor.ZeroSlice(g)
		net.LossAndGrad(x, labels)
		pool.Release(b)
	}
	// Warm twice with two buffers in flight so the pool's free list has
	// reached its steady capacity.
	b1 := pool.Acquire(m.Key(), m.ArenaBytes(), 1)
	b2 := pool.Acquire(m.Key(), m.ArenaBytes(), 1)
	pool.Release(b1)
	pool.Release(b2)
	task()
	if avg := testing.AllocsPerRun(20, task); avg > hotPathAllocThreshold {
		t.Errorf("pooled task sequence: %.2f allocs/iteration, want ~0", avg)
	}
}

func TestEvaluatePathAllocs(t *testing.T) {
	skipUnderRace(t)
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(1)

	const batch = 8
	net := BuildScaled(ResNet32, batch, tensor.NewRNG(1))
	w := net.Init(tensor.NewRNG(2))
	g := make([]float32, net.ParamSize())
	net.Bind(w, g)
	net.AttachArena(tensor.NewArena(net.MemPlan().ArenaElems))
	x := tensor.New(append([]int{batch}, net.InShape...)...)
	labels := make([]int, batch)
	net.Evaluate(x, labels) // warm (preds scratch)
	if avg := testing.AllocsPerRun(20, func() { net.Evaluate(x, labels) }); avg > hotPathAllocThreshold {
		t.Errorf("evaluate: %.2f allocs/batch, want ~0", avg)
	}

	// The shape every evaluation lane of the trainer runs: a fused network
	// over a forward-only arena at batch 16. Evaluate must not compute the
	// loss there, whose logits gradient the inference plan does not hold.
	const laneBatch = 16
	lane := BuildScaled(ResNet32, laneBatch, tensor.NewRNG(1))
	lane.FuseInference()
	lane.Bind(w, g)
	lane.AttachInferenceArena(tensor.NewArena(lane.InferPlan().ArenaElems))
	lx := tensor.New(append([]int{laneBatch}, lane.InShape...)...)
	lLabels := make([]int, laneBatch)
	lane.Evaluate(lx, lLabels)
	if avg := testing.AllocsPerRun(20, func() { lane.Evaluate(lx, lLabels) }); avg > hotPathAllocThreshold {
		t.Errorf("fused evaluate over an inference arena: %.2f allocs/batch, want ~0", avg)
	}
	if lane.loss.dx.HasData() {
		t.Error("fused evaluate allocated the logits gradient")
	}
}
