package serve

import (
	"sync"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// scalerSim drives the pure scaler with a synthetic machine: per-replica
// capacity perCap, so throughput at m replicas under offered rate λ is
// min(λ, m·perCap·eff(m)) with mild efficiency loss per extra replica (they
// split a fixed worker budget).
func scalerSim(s *scaler, rate float64, perCap float64, windows int) []int {
	counts := make([]int, 0, windows)
	for w := 0; w < windows; w++ {
		m := float64(s.cur)
		eff := 1.0 - 0.04*(m-1) // splitting the budget isn't free
		tput := m * perCap * eff
		if tput > rate {
			tput = rate
		}
		counts = append(counts, s.step(rate, tput))
	}
	return counts
}

// TestScalerClimbsUnderLoad: saturated offered load drives the hill-climb
// up until adding a replica stops paying, never past the ceiling.
func TestScalerClimbsUnderLoad(t *testing.T) {
	s := newScaler(1, 6)
	counts := scalerSim(s, 10_000, 1000, 20)
	final := counts[len(counts)-1]
	if final < 4 || final > 6 {
		t.Fatalf("saturated scaler settled at %d replicas, want within [4, 6] (history %v)", final, counts)
	}
	if !s.tuner.Settled() {
		t.Fatal("scaler never settled under constant load")
	}
	// Monotone climb: the search only ever moves by one.
	for i := 1; i < len(counts); i++ {
		if d := counts[i] - counts[i-1]; d > 1 || d < -1 {
			t.Fatalf("replica count jumped by %d at window %d: %v", d, i, counts)
		}
	}
}

// TestScalerIdleScaleIn: when load falls away, the pool steps back down —
// but only after the hysteresis, and never below the floor.
func TestScalerIdleScaleIn(t *testing.T) {
	s := newScaler(1, 6)
	scalerSim(s, 10_000, 1000, 20) // climb and settle high
	high := s.cur
	counts := scalerSim(s, 300, 1000, 30) // load collapses
	final := counts[len(counts)-1]
	if final >= high {
		t.Fatalf("idle pool stayed at %d replicas (was %d)", final, high)
	}
	if final < 1 {
		t.Fatalf("scaled below the floor: %d", final)
	}
	// Hysteresis: the first stableWindows windows must not move.
	for i := 0; i < stableWindows-1; i++ {
		if counts[i] != high {
			t.Fatalf("scaled in after only %d windows: %v", i+1, counts)
		}
	}
	// And a single idle window amid load must not (counters reset).
	s2 := newScaler(1, 6)
	scalerSim(s2, 10_000, 1000, 20)
	before := s2.cur
	scalerSim(s2, 300, 1000, stableWindows-1) // not enough idle windows
	scalerSim(s2, 10_000, 1000, 1)
	if s2.cur != before {
		t.Fatalf("short idle blip resized the pool: %d → %d", before, s2.cur)
	}
}

// TestScalerDriftRestart: sustained demand growth after settling re-opens
// the search; a short spike does not.
func TestScalerDriftRestart(t *testing.T) {
	s := newScaler(1, 6)
	scalerSim(s, 1500, 1000, 20) // settles low: ~2 replicas cover it
	low := s.cur
	if low >= 4 {
		t.Fatalf("low-load search settled at %d replicas", low)
	}
	// One spike window: no restart.
	scalerSim(s, 8000, 1000, 1)
	if !s.tuner.Settled() {
		t.Fatal("single spike window re-opened the search")
	}
	// Sustained growth: the search re-opens within stableWindows windows,
	// and the first window after the restart is its baseline, so it
	// already proposes one more replica.
	for w := 0; s.tuner.Settled(); w++ {
		if w == stableWindows {
			t.Fatalf("no restart after %d windows of sustained growth", w)
		}
		scalerSim(s, 8000, 1000, 1)
	}
	if next := scalerSim(s, 8000, 1000, 1)[0]; next != low+1 {
		t.Fatalf("first window after the restart moved %d → %d replicas, want %d", low, next, low+1)
	}
	// And the climb goes on.
	counts := scalerSim(s, 8000, 1000, 25)
	if final := counts[len(counts)-1]; final <= low {
		t.Fatalf("sustained demand growth never scaled out: stayed at %d (history %v)", final, counts)
	}
}

// TestAutoScaleEngine is the end-to-end pin: an engine with AutoScale
// reports live replica state in Stats, serves a burst correctly, and shuts
// down cleanly with parked replicas.
func TestAutoScaleEngine(t *testing.T) {
	e, _ := newTestEngine(t, Config{
		Model:        nn.LeNet,
		Replicas:     1,
		AutoScale:    3,
		MaxBatch:     8,
		SLO:          250 * time.Millisecond,
		ControlEvery: 10 * time.Millisecond,
	})
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Predict(randomSample(e.SampleVol(), uint64(i))); err != nil {
				t.Errorf("Predict: %v", err)
			}
		}(i)
	}
	wg.Wait()
	s := e.Stats()
	if s.Replicas < 1 || s.Replicas > 3 {
		t.Errorf("Stats.Replicas = %d, want within [1, 3]", s.Replicas)
	}
	if s.Requests != 48 {
		t.Errorf("Stats.Requests = %d, want 48", s.Requests)
	}
	e.Close() // must not hang with replicas parked beyond desired
}

// TestAutoscaleLeavesWholeBudget: an autoscaling engine divides the kernel
// budget only by the batches it has in flight, so once it is closed every
// later kernel call in the process gets the whole budget back. Close waits
// for the control goroutine, so no sleep is needed.
func TestAutoscaleLeavesWholeBudget(t *testing.T) {
	defer tensor.SetWorkerBudget(tensor.WorkerBudget())
	tensor.SetWorkerBudget(4)
	e, _ := newTestEngine(t, Config{
		Model:     nn.LeNet,
		Replicas:  2,
		AutoScale: 3,
		SLO:       10 * time.Millisecond,
	})
	if _, err := e.Predict(randomSample(e.SampleVol(), 1)); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	e.Close()
	if got := tensor.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}
}
