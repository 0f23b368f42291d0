package serve

import (
	"sync"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// TestStragglerGate pins the hold-open decision as a pure function of the
// measured class service times: a non-full batch holds for stragglers only
// when, within one class-1 service time ŝ(1) before its first request,
// another request arrived or a batch was answered. An unmeasured class
// borrows the estimate of the largest measured smaller class, and with no
// class measured nothing holds.
func TestStragglerGate(t *testing.T) {
	const s1 = 300 * time.Microsecond
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return base.Add(d) }
	var never time.Time
	first := at(time.Second)
	measured := []time.Duration{s1, 0, 0, 0} // classes 1, 2, 4, 8
	for _, tc := range []struct {
		name           string
		svc            []time.Duration
		prev, answered time.Time
		want           bool
	}{
		{"nothing measured: no hold however recent", []time.Duration{0, 0, 0, 0}, first, first, false},
		{"only a larger class measured: no hold", []time.Duration{0, 0, 0, s1}, first, first, false},
		{"fresh engine: nothing ever arrived or was answered", measured, never, never, false},
		{"idle for a whole service time", measured, at(time.Second - s1), at(time.Second - s1), false},
		{"idle for long", measured, at(0), at(0), false},
		{"arrival just inside the service time", measured, at(time.Second - s1 + 1), never, true},
		{"arrival at the same instant", measured, first, never, true},
		{"arrival after first (enqueue race)", measured, at(time.Second + time.Microsecond), never, true},
		{"answer just inside the service time releases closed-loop callers", measured, never, at(time.Second - s1 + 1), true},
		{"answer after first was enqueued", measured, at(0), at(time.Second + time.Millisecond), true},
		{"old arrival, recent answer", measured, at(0), at(time.Second - time.Microsecond), true},
		{"recent arrival, old answer", measured, at(time.Second - time.Microsecond), at(0), true},
		{"inside MaxDelay but outside ŝ(1): no hold", measured, at(time.Second - 2*s1), at(time.Second - 2*s1), false},
	} {
		e := gateEngine(tc.svc)
		if got := holdOpen(first, tc.prev, tc.answered, e.svcEstimate(1)); got != tc.want {
			t.Errorf("%s: holdOpen = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The hold window of a batch of n is ŝ of the class n ships on.
	svc := []time.Duration{100, 0, 400, 0} // classes 1, 2, 4, 8 measured at 1 and 4
	e := gateEngine(svc)
	for n, want := range map[int]time.Duration{1: 100, 2: 100, 3: 400, 4: 400, 5: 400, 8: 400} {
		if got := e.svcEstimate(n); got != want {
			t.Errorf("ŝ(%d) with classes %v measured: %v, want %v", n, svc, got, want)
		}
	}
}

// gateEngine is a bare engine whose batch classes 1, 2, 4, 8 carry the given
// service-time estimates (zero: unmeasured).
func gateEngine(svc []time.Duration) *Engine {
	e := &Engine{classes: batchClasses(8)}
	e.classMeters = make([]classMeter, len(e.classes))
	for i, d := range svc {
		e.classMeters[i].ewmaNs.Store(int64(d))
	}
	return e
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

// TestStragglerTrickleShipsAtOnce: requests 10ms apart, far longer than a
// LeNet forward, each find the previous one answered. No straggler can join
// a batch within one service time, so each ships at once however long
// MaxDelay is. A few sequential requests first measure ŝ(1) over more than
// one batch, so one batch stalled by the host cannot set it.
func TestStragglerTrickleShipsAtOnce(t *testing.T) {
	const requests = 17
	e, _ := newTestEngine(t, Config{Model: nn.LeNet, MaxBatch: 8, MaxDelay: 200 * time.Millisecond})
	defer e.Close()
	sample := randomSample(e.SampleVol(), 1)
	for i := 0; i < 4; i++ {
		if _, err := e.Predict(sample); err != nil {
			t.Fatalf("warm-up Predict: %v", err)
		}
	}
	before := e.Stats()
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Predict(sample); err != nil {
				t.Errorf("Predict: %v", err)
			}
		}()
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	s := e.Stats()
	if reqs, batches := s.Requests-before.Requests, s.Batches-before.Batches; reqs != batches {
		t.Fatalf("trickle 10ms apart under a 200ms MaxDelay: %d requests in %d batches, want one batch each",
			reqs, batches)
	}
}

// TestStragglerFewCallersNotHeld: three closed-loop callers can never fill
// a batch of eight. Once the third has joined, no straggler comes within a
// service time, so the batch ships instead of waiting out MaxDelay: no
// gather may run its hold to the end. The count judges the gate itself, not
// a latency a loaded machine can stretch on its own. Mutation-checked: a
// gather that ignores the ŝ gap and always holds to MaxDelay fails it.
func TestStragglerFewCallersNotHeld(t *testing.T) {
	const (
		callers = 3
		rounds  = 20
	)
	e, _ := newTestEngine(t, Config{Model: nn.LeNet, MaxBatch: 8, MaxDelay: 200 * time.Millisecond})
	defer e.Close()
	sample := randomSample(e.SampleVol(), 1)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := e.Predict(sample); err != nil {
					t.Errorf("Predict: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := e.Stats()
	if s.HoldsExpired != 0 {
		t.Fatalf("%d closed-loop callers, MaxBatch 8, MaxDelay 200ms: %d of %d batches (%.2f requests each) waited out MaxDelay; p99 %.1fms",
			callers, s.HoldsExpired, s.Batches, s.BatchOccupancy, s.P99Ms)
	}
	t.Logf("%d batches of %.2f, none held to MaxDelay; p99 %.1fms", s.Batches, s.BatchOccupancy, s.P99Ms)
}
