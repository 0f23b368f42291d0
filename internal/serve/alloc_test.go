package serve

import (
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// Serving-plane allocation smoke (CI): the per-request hot path — free-list
// checkout, enqueue, dynamic batching, replica staging, forward-only
// inference against the planned arena, reply — must perform zero heap
// allocations per request in steady state. Measured at kernel worker
// budget 1, like the training-side TestHotPathAllocs: at higher budgets
// ParallelFor's chunk closures intrinsically allocate.

const servingAllocThreshold = 0.5

func measureServeAllocs(t *testing.T, id nn.ModelID, maxBatch int) float64 {
	t.Helper()
	net := nn.BuildScaled(id, 1, tensor.NewRNG(1))
	e, err := New(Config{
		Model:    id,
		Params:   net.Init(tensor.NewRNG(2)),
		MaxBatch: maxBatch,
		MaxDelay: 0, // ship at once: a lone sequential client never waits
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	sample := randomSample(e.SampleVol(), 3)
	for i := 0; i < 5; i++ { // warm the free lists and kernel pools
		if _, err := e.Predict(sample); err != nil {
			t.Fatalf("warm-up Predict: %v", err)
		}
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := e.Predict(sample); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	})
}

func TestServeHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the instrumented path")
	}
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(1)
	for _, id := range nn.AllModels {
		if avg := measureServeAllocs(t, id, 4); avg > servingAllocThreshold {
			t.Errorf("%s: %.2f allocs/request, want ~0", id, avg)
		}
	}
}

// TestServeHotPathAllocsBatched repeats the check with the batcher actually
// coalescing (MaxDelay > 0, several in-flight clients): held batches, the
// gather token's hand-offs, batches of every size on every class,
// multi-request replies. The
// clients are persistent goroutines woken over channels, so the harness
// allocates nothing either. Once each class's slot is built — the warm-up
// runs every size a few times — a request allocates nothing.
func TestServeHotPathAllocsBatched(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the instrumented path")
	}
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(1)

	const maxBatch = 4
	net := nn.BuildScaled(nn.LeNet, 1, tensor.NewRNG(1))
	e, err := New(Config{
		Model:    nn.LeNet,
		Params:   net.Init(tensor.NewRNG(2)),
		MaxBatch: maxBatch,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	sample := randomSample(e.SampleVol(), 3)

	wake, done := make(chan struct{}), make(chan struct{})
	defer close(wake)
	for c := 1; c < maxBatch; c++ {
		go func() {
			for range wake {
				if _, err := e.Predict(sample); err != nil {
					t.Errorf("Predict: %v", err)
				}
				done <- struct{}{}
			}
		}()
	}
	// sizes issues one group of every size from 1 to maxBatch; each group
	// follows an answer, so it is held open and coalesces.
	sizes := func() {
		for size := 1; size <= maxBatch; size++ {
			for c := 1; c < size; c++ {
				wake <- struct{}{}
			}
			if _, err := e.Predict(sample); err != nil {
				t.Errorf("Predict: %v", err)
			}
			for c := 1; c < size; c++ {
				<-done
			}
		}
	}
	for i := 0; i < 3; i++ {
		sizes()
	}
	if avg := testing.AllocsPerRun(20, sizes); avg != 0 {
		t.Errorf("batched path: %.0f allocs per %d requests in batches of 1..%d, want 0 — serving objects are leaking out of the free lists",
			avg, maxBatch*(maxBatch+1)/2, maxBatch)
	}
}
