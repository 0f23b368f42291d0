package serve

import (
	"sync"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// TestStragglerGate pins the hold-open decision as a pure function: a
// non-full batch waits for stragglers only when, within the delay before
// its first request, another request arrived or a batch was answered.
func TestStragglerGate(t *testing.T) {
	const delay = 2 * time.Millisecond
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return base.Add(d) }
	var never time.Time
	first := at(time.Second)
	for _, tc := range []struct {
		name           string
		prev, answered time.Time
		delay          time.Duration
		want           bool
	}{
		{"fresh engine: nothing ever arrived or was answered", never, never, delay, false},
		{"idle for a whole delay", at(time.Second - delay), at(time.Second - delay), delay, false},
		{"idle for long", at(0), at(0), delay, false},
		{"arrival just inside the delay", at(time.Second - delay + 1), never, delay, true},
		{"arrival at the same instant", first, never, delay, true},
		{"arrival after first (enqueue race)", at(time.Second + time.Microsecond), never, delay, true},
		{"answer just inside the delay releases closed-loop callers", never, at(time.Second - delay + 1), delay, true},
		{"answer after first was enqueued", at(0), at(time.Second + time.Millisecond), delay, true},
		{"old arrival, recent answer", at(0), at(time.Second - time.Microsecond), delay, true},
		{"recent arrival, old answer", at(time.Second - time.Microsecond), at(0), delay, true},
		{"zero delay never holds", first, first, 0, false},
	} {
		if got := holdOpen(first, tc.prev, tc.answered, tc.delay); got != tc.want {
			t.Errorf("%s: holdOpen = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStragglerLoneRequestNotHeld: on a fresh engine nothing can join a
// lone request, so it ships at once however long MaxDelay is.
func TestStragglerLoneRequestNotHeld(t *testing.T) {
	e, _ := newTestEngine(t, Config{Model: nn.LeNet, MaxBatch: 8, MaxDelay: 200 * time.Millisecond})
	defer e.Close()
	sample := randomSample(e.SampleVol(), 1)
	start := time.Now()
	if _, err := e.Predict(sample); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Fatalf("lone request on a fresh engine took %v: it was held for stragglers that cannot come", d)
	}
}

// TestStragglerClosedLoopKeepsFullBatches: MaxBatch closed-loop callers
// resubmit as soon as their batch is answered, so the batches after warm-up
// fill. MaxDelay is set below a measured class-MaxBatch forward: when the
// answer releases the callers, the last arrival is older than MaxDelay, and
// only the answer clause keeps the next batch open for the rest of them.
// Without it the first resubmission ships alone every round (about one
// class-1 batch per round, occupancy near MaxBatch/2).
func TestStragglerClosedLoopKeepsFullBatches(t *testing.T) {
	const (
		maxBatch = 8
		warm     = 10
		rounds   = 40
	)
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)
	tensor.SetWorkerBudget(1)
	w := nn.BuildScaled(nn.ResNet32, 1, tensor.NewRNG(1)).Init(tensor.NewRNG(2))
	delay := 7 * forwardTime(nn.ResNet32, w, maxBatch) / 10
	e, err := New(Config{Model: nn.ResNet32, Params: w, MaxBatch: maxBatch, MaxDelay: delay})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	sample := randomSample(e.SampleVol(), 1)

	loop := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < maxBatch; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := e.Predict(sample); err != nil {
						t.Errorf("Predict: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	loop(warm)
	before, lone := e.Stats(), e.classMeters[0].n.Load()
	loop(rounds)
	s := e.Stats()
	lone = e.classMeters[0].n.Load() - lone
	reqs, batches := s.Requests-before.Requests, s.Batches-before.Batches
	if occ := float64(reqs) / float64(batches); occ < 0.75*maxBatch || lone > rounds/4 {
		t.Fatalf("%d closed-loop callers, MaxDelay %v: occupancy %.2f over %d batches (%d of class 1), want %d: batches after an answer shipped early",
			maxBatch, delay, occ, batches, lone, maxBatch)
	}
}

// forwardTime is the fastest of five fused forward passes of model at
// batch b: what a replica's slot of that class costs per batch.
func forwardTime(model nn.ModelID, w []float32, b int) time.Duration {
	net := nn.BuildScaled(model, b, tensor.NewRNG(1))
	net.FuseInference()
	net.Bind(w, make([]float32, len(w)))
	net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
	x := tensor.New(append([]int{b}, net.InShape...)...)
	preds, conf := make([]int, b), make([]float32, b)
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		start := time.Now()
		net.Predict(x, preds, conf)
		best = min(best, time.Since(start))
	}
	return best
}

// TestStragglerTrickleCoalesces: requests that keep arriving far inside
// MaxDelay of each other still share batches.
func TestStragglerTrickleCoalesces(t *testing.T) {
	const requests = 17
	e, _ := newTestEngine(t, Config{Model: nn.LeNet, MaxBatch: 8, MaxDelay: 200 * time.Millisecond})
	defer e.Close()
	sample := randomSample(e.SampleVol(), 1)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Predict(sample); err != nil {
				t.Errorf("Predict: %v", err)
			}
		}()
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	if s := e.Stats(); s.BatchOccupancy <= 1 {
		t.Fatalf("trickle 2ms apart under a 200ms MaxDelay: %d requests in %d batches, never coalesced",
			s.Requests, s.Batches)
	}
}
