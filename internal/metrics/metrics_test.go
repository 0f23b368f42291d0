package metrics

import (
	"math"
	"testing"
)

func series(accs ...float64) []EpochPoint {
	s := make([]EpochPoint, len(accs))
	for i, a := range accs {
		s[i] = EpochPoint{Epoch: i + 1, TimeSec: float64(i+1) * 10, TestAcc: a}
	}
	return s
}

func TestTTAMedianWindow(t *testing.T) {
	// A single spike must not trigger TTA: the median of the window has
	// to clear the target.
	s := series(0.1, 0.9, 0.1, 0.1, 0.1, 0.1, 0.85, 0.86, 0.9, 0.88, 0.9)
	tt, ok := TTA(s, 0.8)
	if !ok {
		t.Fatal("target never reached")
	}
	// Windows ending at epoch 9 hold {0.1,0.85,0.86,0.9,0.88} → median
	// 0.86 ≥ 0.8, so TTA is epoch 9's time.
	if tt != 90 {
		t.Fatalf("TTA = %v, want 90", tt)
	}
}

func TestTTAEarlyPrefixWindow(t *testing.T) {
	s := series(0.9, 0.92)
	tt, ok := TTA(s, 0.8)
	if !ok || tt != 10 {
		t.Fatalf("TTA = %v ok=%v, want 10", tt, ok)
	}
}

func TestTTANeverReached(t *testing.T) {
	if _, ok := TTA(series(0.1, 0.2, 0.3), 0.9); ok {
		t.Fatal("should not reach target")
	}
}

func TestEpochsToAccuracy(t *testing.T) {
	s := series(0.5, 0.7, 0.81, 0.82, 0.83, 0.84, 0.85)
	e, ok := EpochsToAccuracy(s, 0.8)
	if !ok {
		t.Fatal("not reached")
	}
	// Window at epoch 5: {0.5,0.7,0.81,0.82,0.83} → median 0.81 ≥ 0.8.
	if e != 5 {
		t.Fatalf("epochs = %d, want 5", e)
	}
}

func TestBestAccuracy(t *testing.T) {
	if b := BestAccuracy(series(0.1, 0.7, 0.4)); b != 0.7 {
		t.Fatalf("best = %v", b)
	}
	if b := BestAccuracy(nil); b != 0 {
		t.Fatalf("best of empty = %v", b)
	}
}

func TestMedianEvenWindow(t *testing.T) {
	if m := Median([]float64{0.2, 0.4}); math.Abs(m-0.3) > 1e-12 {
		t.Fatalf("median = %v", m)
	}
}
