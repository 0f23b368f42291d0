package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// TestServeMatchesDirectForward pins what a replica serves: the engine's
// fused, lazily built slots answer with the class and the confidence bits of
// an unfused nn.Network.Predict over the same parameters — at every adaptive
// batch class, and again after a hot swap rebinds the fused slots.
//
// The controller never ticks (ControlEvery is an hour), so the test owns the
// policy: with a straggler wait longer than the test, a batch ships exactly
// when it holds the current class's number of requests.
func TestServeMatchesDirectForward(t *testing.T) {
	const maxBatch = 8
	e, w := newTestEngine(t, Config{
		Model: nn.ResNet32, MaxBatch: maxBatch,
		SLO: time.Second, ControlEvery: time.Hour, Version: 1,
	})
	defer e.Close()
	e.curDelayNs.Store(int64(time.Minute))

	ref := nn.BuildScaled(nn.ResNet32, 1, tensor.NewRNG(9))
	grad := make([]float32, ref.ParamSize())
	x := tensor.New(append([]int{1}, ref.InShape...)...)
	preds := make([]int, 1)
	conf := make([]float32, 1)

	check := func(w []float32, version int64) {
		t.Helper()
		ref.Bind(w, grad)
		for _, class := range e.classes {
			e.curBatch.Store(int64(class))
			before := e.Stats()
			samples := make([][]float32, class)
			got := make([]Prediction, class)
			errs := make([]error, class)
			var wg sync.WaitGroup
			for i := range samples {
				samples[i] = randomSample(e.SampleVol(), uint64(900+i))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = e.Predict(samples[i])
				}(i)
			}
			wg.Wait()
			if s := e.Stats(); s.Batches-before.Batches != 1 || s.Requests-before.Requests != int64(class) {
				t.Fatalf("v%d class %d: %d requests in %d batches, want one batch of %d",
					version, class, s.Requests-before.Requests, s.Batches-before.Batches, class)
			}
			for i, p := range got {
				if errs[i] != nil {
					t.Fatalf("v%d class %d: Predict: %v", version, class, errs[i])
				}
				copy(x.Data(), samples[i])
				ref.Predict(x, preds, conf)
				if p.Class != preds[0] || math.Float32bits(p.Confidence) != math.Float32bits(conf[0]) {
					t.Fatalf("v%d class %d sample %d: served (%d, %v), unfused forward says (%d, %v)",
						version, class, i, p.Class, p.Confidence, preds[0], conf[0])
				}
				if p.Version != version {
					t.Fatalf("v%d class %d sample %d: answered by version %d", version, class, i, p.Version)
				}
			}
		}
	}
	check(w, 1)

	// Every slot is built and fused by now; the swap must reach the
	// parameters their epilogues read (batch-norm statistics included).
	w2 := make([]float32, len(w))
	for i, v := range w {
		w2[i] = v * 1.25
	}
	if err := e.UpdateModel(w2, 2); err != nil {
		t.Fatalf("UpdateModel: %v", err)
	}
	check(w2, 2)
}
