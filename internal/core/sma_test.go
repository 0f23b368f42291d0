package core

import (
	"math"
	"testing"
	"testing/quick"

	"crossbow/internal/tensor"
)

func vecs(k, n int, seed uint64) ([][]float32, [][]float32) {
	r := tensor.NewRNG(seed)
	ws := make([][]float32, k)
	gs := make([][]float32, k)
	for j := 0; j < k; j++ {
		ws[j] = make([]float32, n)
		gs[j] = make([]float32, n)
		for i := 0; i < n; i++ {
			ws[j][i] = float32(r.NormFloat64())
		}
	}
	return ws, gs
}

func TestSMAFixedPoint(t *testing.T) {
	// Replicas equal to z, zero gradients, zero momentum: nothing moves.
	w0 := []float32{1, -2, 3}
	s := NewSMA(SMAConfig{LearnRate: 0.1}, w0, 2)
	ws := [][]float32{append([]float32(nil), w0...), append([]float32(nil), w0...)}
	gs := [][]float32{make([]float32, 3), make([]float32, 3)}
	s.Step(ws, gs)
	if tensor.MaxAbsDiff(s.Average(), w0) != 0 {
		t.Fatal("z moved at fixed point")
	}
	for _, w := range ws {
		if tensor.MaxAbsDiff(w, w0) != 0 {
			t.Fatal("replica moved at fixed point")
		}
	}
}

func TestSMAZeroGradConvergesToMean(t *testing.T) {
	// With zero gradients and α = 1/k, one sync step moves z exactly to
	// the replica mean (line 12: z + Σ α(w_j − z) = mean(w)).
	k, n := 4, 8
	ws, gs := vecs(k, n, 3)
	w0 := make([]float32, n) // z starts at 0
	s := NewSMA(SMAConfig{LearnRate: 0.1}, w0, k)
	want := make([]float32, n)
	tensor.AverageInto(want, ws...)
	s.Step(ws, gs)
	if d := tensor.MaxAbsDiff(s.Average(), want); d > 1e-5 {
		t.Fatalf("z after one step differs from replica mean by %v", d)
	}
}

func TestSMACorrectionPullsReplicasTowardAverage(t *testing.T) {
	k, n := 2, 4
	ws, gs := vecs(k, n, 5)
	z0 := make([]float32, n)
	s := NewSMA(SMAConfig{LearnRate: 0}, z0, k)
	before := make([]float64, k)
	for j := range ws {
		before[j] = tensor.MaxAbsDiff(ws[j], z0)
	}
	s.Step(ws, gs)
	for j := range ws {
		after := tensor.MaxAbsDiff(ws[j], z0)
		if after >= before[j] {
			t.Fatalf("replica %d not pulled toward z: %v -> %v", j, before[j], after)
		}
	}
}

func TestSMAMomentumAcceleratesAverage(t *testing.T) {
	// Drive replicas with a constant offset from z; with momentum the
	// average model must travel further than without over several steps.
	run := func(mu float32) float64 {
		const n = 4
		z0 := make([]float32, n)
		s := NewSMA(SMAConfig{LearnRate: 0, Momentum: mu}, z0, 1)
		w := make([]float32, n)
		g := make([]float32, n)
		for step := 0; step < 10; step++ {
			for i := range w {
				w[i] = s.Average()[i] + 1 // stay one unit ahead of z
			}
			s.Step([][]float32{w}, [][]float32{g})
		}
		return float64(s.Average()[0])
	}
	plain := run(0)
	accel := run(0.9)
	if accel <= plain {
		t.Fatalf("momentum should accelerate: µ=0 → %v, µ=0.9 → %v", plain, accel)
	}
}

func TestSMATauSkipsSync(t *testing.T) {
	z0 := []float32{1, 1, 1}
	s := NewSMA(SMAConfig{LearnRate: 0.5, Tau: 3}, z0, 1)
	w := []float32{1, 1, 1}
	g := []float32{1, 0, 0}
	// Iterations 1 and 2 are pure gradient steps: z untouched.
	s.Step([][]float32{w}, [][]float32{g})
	s.Step([][]float32{w}, [][]float32{g})
	if tensor.MaxAbsDiff(s.Average(), z0) != 0 {
		t.Fatal("z must not move on non-sync iterations")
	}
	if w[0] != 0 {
		t.Fatalf("w[0] = %v, want 0 after two lr=0.5 steps on unit gradient", w[0])
	}
	// Iteration 3 synchronises.
	s.Step([][]float32{w}, [][]float32{g})
	if tensor.MaxAbsDiff(s.Average(), z0) == 0 {
		t.Fatal("z should move on the sync iteration")
	}
}

func TestSMARestart(t *testing.T) {
	k, n := 3, 5
	ws, gs := vecs(k, n, 7)
	for j := range gs {
		for i := range gs[j] {
			gs[j][i] = float32(j + 1)
		}
	}
	s := NewSMA(SMAConfig{LearnRate: 0.1, Momentum: 0.9}, make([]float32, n), k)
	s.Step(ws, gs)
	s.Step(ws, gs)
	s.Restart(ws)
	for j := range ws {
		if tensor.MaxAbsDiff(ws[j], s.Average()) != 0 {
			t.Fatal("restart must reset replicas to z")
		}
	}
	// After restart the momentum history is cleared: a zero-gradient step
	// from the fixed point stays put.
	zero := make([][]float32, k)
	for j := range zero {
		zero[j] = make([]float32, n)
	}
	zBefore := append([]float32(nil), s.Average()...)
	s.Step(ws, zero)
	if d := tensor.MaxAbsDiff(s.Average(), zBefore); d > 1e-6 {
		t.Fatalf("z moved by %v after restart at fixed point (stale momentum?)", d)
	}
}

func TestSMAAlphaDefault(t *testing.T) {
	s := NewSMA(SMAConfig{LearnRate: 0.1}, make([]float32, 1), 8)
	if math.Abs(float64(s.Alpha())-0.125) > 1e-9 {
		t.Fatalf("alpha = %v, want 1/8", s.Alpha())
	}
}

// Property: with µ=0 and identical inputs, SMA and EA-SGD (τ=1) produce
// identical replicas and central models — momentum is the only difference
// (the ablation behind Figure 15).
func TestSMAEquivalentToEASGDWithoutMomentum(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%4) + 1
		n := 6
		ws1, gs := vecs(k, n, seed)
		ws2 := make([][]float32, k)
		for j := range ws1 {
			ws2[j] = append([]float32(nil), ws1[j]...)
			for i := range gs[j] {
				gs[j][i] = float32(j) - 1
			}
		}
		w0 := make([]float32, n)
		sma := NewSMA(SMAConfig{LearnRate: 0.05}, w0, k)
		ea := NewEASGD(0.05, 0, 1, k, w0)
		for step := 0; step < 5; step++ {
			sma.Step(ws1, gs)
			ea.Step(ws2, gs)
		}
		if tensor.MaxAbsDiff(sma.Average(), ea.Average()) > 1e-6 {
			return false
		}
		for j := range ws1 {
			if tensor.MaxAbsDiff(ws1[j], ws2[j]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSSGDKeepsReplicasConsistent(t *testing.T) {
	k, n := 4, 6
	ws, gs := vecs(k, n, 11)
	for j := range gs {
		for i := range gs[j] {
			gs[j][i] = float32(tensor.NewRNG(uint64(j*100 + i)).NormFloat64())
		}
	}
	s := NewSSGD(0.1, 0.9, make([]float32, n))
	s.Step(ws, gs)
	for j := 1; j < k; j++ {
		if tensor.MaxAbsDiff(ws[0], ws[j]) != 0 {
			t.Fatal("S-SGD must keep all replicas identical after each iteration")
		}
	}
	if tensor.MaxAbsDiff(ws[0], s.Average()) != 0 {
		t.Fatal("replicas must equal the global model")
	}
}

func TestSSGDMatchesEq3ByHand(t *testing.T) {
	// One worker, w0 = 0, g = 1, γ = 0.1, µ = 0.5:
	// step1: v = −0.1, w = −0.1
	// step2: v = 0.5·(−0.1) − 0.1 = −0.15, w = −0.25
	s := NewSSGD(0.1, 0.5, []float32{0})
	w := [][]float32{{0}}
	g := [][]float32{{1}}
	s.Step(w, g)
	if math.Abs(float64(w[0][0])+0.1) > 1e-7 {
		t.Fatalf("after step1 w = %v, want -0.1", w[0][0])
	}
	s.Step(w, g)
	if math.Abs(float64(w[0][0])+0.25) > 1e-7 {
		t.Fatalf("after step2 w = %v, want -0.25", w[0][0])
	}
}

// Property: hierarchical SMA with one learner per GPU equals flat SMA.
func TestHierarchicalReducesToFlat(t *testing.T) {
	f := func(seed uint64, gRaw uint8) bool {
		g := int(gRaw%4) + 1
		n := 5
		ws1, gs := vecs(g, n, seed)
		ws2 := make([][]float32, g)
		for j := range ws1 {
			ws2[j] = append([]float32(nil), ws1[j]...)
			for i := range gs[j] {
				gs[j][i] = float32(i) * 0.1
			}
		}
		w0 := make([]float32, n)
		cfg := SMAConfig{LearnRate: 0.05, Momentum: 0.6}
		flat := NewSMA(cfg, w0, g)
		hier := NewHierarchicalSMA(cfg, w0, GroupsFor(g, 1))
		for step := 0; step < 4; step++ {
			flat.Step(ws1, gs)
			hier.Step(ws2, gs)
		}
		if tensor.MaxAbsDiff(flat.Average(), hier.Average()) > 1e-5 {
			return false
		}
		for j := range ws1 {
			if tensor.MaxAbsDiff(ws1[j], ws2[j]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalLocalSyncPullsGroupTogether(t *testing.T) {
	// Two learners on one GPU: after a sync step their replicas must be
	// closer to each other than before.
	ws, gs := vecs(2, 6, 17)
	before := tensor.MaxAbsDiff(ws[0], ws[1])
	h := NewHierarchicalSMA(SMAConfig{LearnRate: 0}, make([]float32, 6), GroupsFor(1, 2))
	h.Step(ws, gs)
	after := tensor.MaxAbsDiff(ws[0], ws[1])
	if after >= before {
		t.Fatalf("group not pulled together: %v -> %v", before, after)
	}
}

func TestGroupsFor(t *testing.T) {
	g := GroupsFor(2, 3)
	if len(g) != 2 || len(g[0]) != 3 {
		t.Fatalf("groups = %v", g)
	}
	if g[1][0] != 3 || g[1][2] != 5 {
		t.Fatalf("groups = %v", g)
	}
}

// Property: all optimisers drive a quadratic loss toward its minimum.
// Gradient of ½‖w−w*‖² is (w−w*), computed per replica.
func TestOptimisersConvergeOnQuadratic(t *testing.T) {
	target := []float32{1, -2, 0.5}
	n := len(target)
	k := 3
	build := func(name string, w0 []float32) stepper {
		switch name {
		case "sma":
			return NewSMA(SMAConfig{LearnRate: 0.1, Momentum: 0.5}, w0, k)
		case "easgd":
			return NewEASGD(0.1, 0, 1, k, w0)
		case "ssgd":
			return NewSSGD(0.1, 0.5, w0)
		case "hier":
			return NewHierarchicalSMA(SMAConfig{LearnRate: 0.1}, w0, [][]int{{0, 1}, {2}})
		}
		panic("bad name")
	}
	for _, name := range []string{"sma", "easgd", "ssgd", "hier"} {
		w0 := make([]float32, n)
		opt := build(name, w0)
		ws, gs := vecs(k, n, 23)
		for step := 0; step < 300; step++ {
			for j := range ws {
				for i := range ws[j] {
					gs[j][i] = ws[j][i] - target[i]
				}
			}
			opt.Step(ws, gs)
		}
		model := opt.Average()
		if d := tensor.MaxAbsDiff(model, target); d > 0.05 {
			t.Errorf("%s: final distance to optimum = %v", name, d)
		}
	}
}
