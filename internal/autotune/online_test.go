package autotune

import "testing"

// drive feeds the controller a throughput curve indexed by learner count
// and returns the settled count and the number of resizes performed.
func drive(t *testing.T, o *Online, curve map[int]float64, maxWindows int) (chosen, resizes int) {
	t.Helper()
	m := o.M()
	for w := 0; w < maxWindows; w++ {
		next := o.Observe(curve[m])
		if next != m {
			resizes++
			m = next
		}
		if o.Settled() {
			return m, resizes
		}
	}
	t.Fatalf("controller did not settle within %d windows (m=%d)", maxWindows, m)
	return 0, 0
}

// TestOnlineClimbsToPeak: throughput improves through m=3 then regresses;
// the controller must keep 3 learners and report the probe history.
func TestOnlineClimbsToPeak(t *testing.T) {
	o := NewOnline(1, 8, 1)
	curve := map[int]float64{1: 100, 2: 150, 3: 190, 4: 185}
	chosen, _ := drive(t, o, curve, 20)
	if chosen != 3 {
		t.Fatalf("chose m=%d, want 3", chosen)
	}
	hist := o.History()
	if len(hist) != 4 {
		t.Fatalf("history has %d decisions, want 4 (1,2,3,4): %+v", len(hist), hist)
	}
	for i, wantM := range []int{1, 2, 3, 4} {
		if hist[i].M != wantM || hist[i].Throughput != curve[wantM] {
			t.Fatalf("decision %d = %+v, want m=%d thr=%v", i, hist[i], wantM, curve[wantM])
		}
	}
	// Settled: further observations do not move the count.
	if next := o.Observe(1); next != 3 {
		t.Fatalf("settled controller moved to %d", next)
	}
}

// TestOnlineFlatCurveStaysAtOne: no extra learner pays off, so the
// controller reverts to a single learner after one probe.
func TestOnlineFlatCurveStaysAtOne(t *testing.T) {
	o := NewOnline(1, 8, 1)
	curve := map[int]float64{1: 100, 2: 101}
	chosen, resizes := drive(t, o, curve, 20)
	if chosen != 1 {
		t.Fatalf("chose m=%d, want 1", chosen)
	}
	if resizes != 2 { // 1→2 probe, 2→1 revert
		t.Fatalf("resizes = %d, want 2", resizes)
	}
}

// TestOnlineWarmupDiscarded: warm-up windows produce no decisions, so a
// cold first epoch cannot poison the baseline.
func TestOnlineWarmupDiscarded(t *testing.T) {
	o := NewOnline(1, 4, 2)
	if next := o.Observe(1); next != 1 { // cold window, discarded
		t.Fatalf("warm-up observation resized to %d", next)
	}
	if next := o.Observe(2); next != 1 { // second cold window
		t.Fatalf("warm-up observation resized to %d", next)
	}
	if len(o.History()) != 0 {
		t.Fatalf("warm-up recorded decisions: %+v", o.History())
	}
	if next := o.Observe(100); next != 2 { // real baseline → probe m=2
		t.Fatalf("baseline observation moved to %d, want 2", next)
	}
}

// TestOnlineRespectsMax: the search stops at the cap instead of probing
// beyond it.
func TestOnlineRespectsMax(t *testing.T) {
	o := NewOnline(1, 2, 1)
	curve := map[int]float64{1: 100, 2: 200}
	chosen, _ := drive(t, o, curve, 10)
	if chosen != 2 {
		t.Fatalf("chose m=%d, want 2 (the cap)", chosen)
	}
}
