package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// newTestEngine builds an engine over a freshly initialised model.
func newTestEngine(t *testing.T, cfg Config) (*Engine, []float32) {
	t.Helper()
	if cfg.Model == "" {
		cfg.Model = nn.LeNet
	}
	probe := nn.BuildScaled(cfg.Model, 1, tensor.NewRNG(1))
	w := probe.Init(tensor.NewRNG(2))
	cfg.Params = w
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, w
}

// randomSample returns a deterministic pseudo-random sample for the model.
func randomSample(vol int, seed uint64) []float32 {
	r := tensor.NewRNG(seed)
	s := make([]float32, vol)
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
	return s
}

// TestPredictMatchesDirectForward pins end-to-end correctness: a prediction
// through the queue/batcher/replica path equals running the same sample
// through the network directly — same class, same confidence bits — for a
// static batch of every size from 1 to MaxBatch, each on the smallest class
// that holds it (size 3 runs class 4 with a stale tail row). Each group
// queues whole behind a held gather token, so it forms one batch however
// its callers are scheduled.
func TestPredictMatchesDirectForward(t *testing.T) {
	const maxBatch = 4
	e, w := newTestEngine(t, Config{Model: nn.LeNet, MaxBatch: maxBatch, Version: 7})
	defer e.Close()

	ref := nn.BuildScaled(nn.LeNet, 1, tensor.NewRNG(9))
	g := make([]float32, ref.ParamSize())
	ref.Bind(w, g)
	x := tensor.New(append([]int{1}, ref.InShape...)...)
	preds := make([]int, 1)
	conf := make([]float32, 1)

	for size := 1; size <= maxBatch; size++ {
		release := holdGather(t, e)
		before := e.Stats()
		samples := make([][]float32, size)
		got := make([]Prediction, size)
		errs := make([]error, size)
		var wg sync.WaitGroup
		for i := range samples {
			samples[i] = randomSample(e.SampleVol(), uint64(100+10*size+i))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = e.Predict(samples[i])
			}(i)
		}
		awaitQueued(e, size)
		release()
		wg.Wait()
		if s := e.Stats(); s.Batches-before.Batches != 1 || s.Requests-before.Requests != int64(size) {
			t.Fatalf("size %d: %d requests in %d batches, want one batch", size,
				s.Requests-before.Requests, s.Batches-before.Batches)
		}
		for i, p := range got {
			if errs[i] != nil {
				t.Fatalf("size %d: Predict: %v", size, errs[i])
			}
			copy(x.Data(), samples[i])
			ref.Predict(x, preds, conf)
			if p.Class != preds[0] || math.Float32bits(p.Confidence) != math.Float32bits(conf[0]) {
				t.Fatalf("size %d sample %d: served (%d, %v), direct forward says (%d, %v)",
					size, i, p.Class, p.Confidence, preds[0], conf[0])
			}
			if p.Version != 7 {
				t.Fatalf("size %d sample %d: version %d, want 7", size, i, p.Version)
			}
		}
	}
}

// TestConcurrentClientsAllBatches hammers the engine from many goroutines
// across several replicas and checks every request is answered correctly
// and the batcher actually coalesces.
func TestConcurrentClientsAllBatches(t *testing.T) {
	const (
		clients  = 16
		perEach  = 25
		maxBatch = 8
	)
	e, w := newTestEngine(t, Config{Model: nn.LeNet, Replicas: 2, MaxBatch: maxBatch, MaxDelay: 2 * time.Millisecond})
	defer e.Close()

	ref := nn.BuildScaled(nn.LeNet, 1, tensor.NewRNG(9))
	ref.Bind(w, make([]float32, ref.ParamSize()))
	x := tensor.New(append([]int{1}, ref.InShape...)...)
	expect := make([]int, clients)
	samples := make([][]float32, clients)
	preds := make([]int, 1)
	for c := range samples {
		samples[c] = randomSample(e.SampleVol(), uint64(500+c))
		copy(x.Data(), samples[c])
		ref.Predict(x, preds, nil)
		expect[c] = preds[0]
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				p, err := e.Predict(samples[c])
				if err != nil {
					errs <- err
					return
				}
				if p.Class != expect[c] {
					t.Errorf("client %d: class %d, want %d", c, p.Class, expect[c])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client error: %v", err)
	}

	s := e.Stats()
	if s.Requests != clients*perEach {
		t.Fatalf("stats report %d requests, want %d", s.Requests, clients*perEach)
	}
	if s.Batches == 0 || s.Batches > s.Requests {
		t.Fatalf("implausible batch count %d for %d requests", s.Batches, s.Requests)
	}
	if s.BatchOccupancy <= 1 {
		t.Errorf("batch occupancy %.2f — the replicas never coalesced under %d concurrent clients",
			s.BatchOccupancy, clients)
	}
	if s.P50Ms <= 0 || s.P99Ms < s.P50Ms || s.MaxMs < s.P99Ms {
		t.Errorf("latency quantiles not ordered: p50=%v p99=%v max=%v", s.P50Ms, s.P99Ms, s.MaxMs)
	}
}

// TestHotModelSwap serves while swapping snapshots and checks every answer
// is tagged with a version that was live at the time, and that the swap
// becomes visible to subsequent predictions.
func TestHotModelSwap(t *testing.T) {
	e, w := newTestEngine(t, Config{Model: nn.LeNet, MaxBatch: 2, MaxDelay: time.Millisecond, Version: 1})
	defer e.Close()
	sample := randomSample(e.SampleVol(), 1)

	if p, err := e.Predict(sample); err != nil || p.Version != 1 {
		t.Fatalf("before swap: %+v, %v (want version 1)", p, err)
	}
	w2 := append([]float32(nil), w...)
	for i := range w2 {
		w2[i] *= 0.5
	}
	if err := e.UpdateModel(w2, 2); err != nil {
		t.Fatalf("UpdateModel: %v", err)
	}
	if p, err := e.Predict(sample); err != nil || p.Version != 2 {
		t.Fatalf("after swap: %+v, %v (want version 2)", p, err)
	}
	if err := e.UpdateModel(w2[:3], 3); err == nil {
		t.Fatal("UpdateModel accepted a truncated parameter vector")
	}
	if s := e.Stats(); s.ModelVersion != 2 || s.ModelSwaps != 1 {
		t.Fatalf("stats version/swaps = %d/%d, want 2/1", s.ModelVersion, s.ModelSwaps)
	}
}

// TestCloseDrainsQueue closes the engine under load: every Predict either
// completes with a real answer or reports ErrClosed; none hang.
func TestCloseDrainsQueue(t *testing.T) {
	e, _ := newTestEngine(t, Config{Model: nn.LeNet, Replicas: 2, MaxBatch: 4, MaxDelay: 500 * time.Microsecond})
	sample := randomSample(e.SampleVol(), 1)

	const clients = 12
	var wg sync.WaitGroup
	var served, closed atomic64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := e.Predict(sample)
				switch err {
				case nil:
					served.add(1)
				case ErrClosed:
					closed.add(1)
					return
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	e.Close()
	wg.Wait()
	if served.load() == 0 {
		t.Error("no request was served before Close")
	}
	if _, err := e.Predict(sample); err != ErrClosed {
		t.Errorf("Predict after Close returned %v, want ErrClosed", err)
	}
	// Close is idempotent.
	e.Close()
}

// TestPredictRejectsWrongSampleSize pins the shape contract: a wrong-sized
// sample must error, never silently classify a hybrid of this request and
// stale staging data.
func TestPredictRejectsWrongSampleSize(t *testing.T) {
	e, _ := newTestEngine(t, Config{Model: nn.LeNet, MaxDelay: 0})
	defer e.Close()
	for _, n := range []int{0, 1, e.SampleVol() - 1, e.SampleVol() + 1} {
		if _, err := e.Predict(make([]float32, n)); err == nil {
			t.Errorf("Predict accepted a %d-element sample (want %d)", n, e.SampleVol())
		}
	}
	if _, err := e.Predict(make([]float32, e.SampleVol())); err != nil {
		t.Fatalf("Predict rejected a correctly sized sample: %v", err)
	}
}

// TestMaxDelayZeroDispatchesImmediately pins the MaxDelay: 0 contract — a
// lone request does not wait for a batch to fill.
func TestMaxDelayZeroDispatchesImmediately(t *testing.T) {
	e, _ := newTestEngine(t, Config{Model: nn.LeNet, MaxBatch: 64, MaxDelay: 0})
	defer e.Close()
	sample := randomSample(e.SampleVol(), 1)
	start := time.Now()
	if _, err := e.Predict(sample); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("lone request took %v — the replica waited for a full batch", d)
	}
	if s := e.Stats(); s.Batches != 1 || s.Requests != 1 {
		t.Fatalf("stats %d/%d, want 1 batch / 1 request", s.Batches, s.Requests)
	}
}

// atomic64 is a tiny test helper avoiding sync/atomic imports noise.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(n int64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
