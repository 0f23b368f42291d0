package nn

import (
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// gradCheck verifies analytic parameter and input gradients of a network
// against central finite differences. Networks are small so float32 noise
// stays manageable; we use a relative-error criterion with an absolute
// floor.
func gradCheck(t *testing.T, net *Network, batch int, seed uint64, tol float64) {
	t.Helper()
	r := tensor.NewRNG(seed)
	w := net.Init(r)
	g := make([]float32, net.ParamSize())
	net.Bind(w, g)
	// Over a planned arena full of NaN: these hand-built stacks (a pool-first
	// one with its planned input copy among them) get the dirty-arena check
	// memory_test.go gives the shipped models.
	dirty := make([]float32, net.MemPlan().ArenaElems)
	for i := range dirty {
		dirty[i] = float32(math.NaN())
	}
	net.AttachArena(tensor.ArenaOf(dirty))

	x := tensor.New(append([]int{batch}, net.InShape...)...)
	xd := x.Data()
	for i := range xd {
		xd[i] = float32(r.NormFloat64())
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(net.Classes)
	}

	// Analytic gradient. Evaluation mode for batch-norm inside the loss
	// path would change statistics; LossAndGrad uses train=true, so the
	// finite-difference probes below must also run train=true forward
	// passes. Dropout must be disabled for determinism (nets under test
	// use no dropout).
	tensor.ZeroSlice(g)
	net.LossAndGrad(x, labels)
	analytic := append([]float32(nil), g...)

	lossAt := func() float64 {
		logits := net.Forward(x, true)
		l, _ := net.loss.Loss(logits, labels)
		return l
	}

	// Probe a deterministic subset of parameters (checking all would be
	// slow for conv nets). eps must stay small: ReLU kinks bias central
	// differences at larger steps. Gradients whose magnitude is below the
	// finite-difference noise floor are skipped rather than compared.
	const eps = 2e-4
	const noiseFloor = 1e-2
	n := net.ParamSize()
	stride := n/60 + 1
	checked := 0
	for i := 0; i < n; i += stride {
		orig := w[i]
		w[i] = orig + eps
		lp := lossAt()
		w[i] = orig - eps
		lm := lossAt()
		w[i] = orig
		numeric := (lp - lm) / (2 * eps)
		a := float64(analytic[i])
		if math.Abs(a)+math.Abs(numeric) < noiseFloor {
			continue
		}
		denom := math.Abs(a) + math.Abs(numeric)
		if math.Abs(a-numeric)/denom > tol {
			t.Errorf("param %d: analytic %v vs numeric %v", i, a, numeric)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
}

func TestGradCheckDense(t *testing.T) {
	r := tensor.NewRNG(1)
	net := NewBuilder(4, []int{6}, 3, r).Dense(5).ReLU().Dense(3).Build()
	gradCheck(t, net, 4, 2, 0.05)
}

func TestGradCheckConv(t *testing.T) {
	r := tensor.NewRNG(1)
	net := NewBuilder(3, []int{2, 6, 6}, 4, r).
		Conv(3, 3, 1, 1).ReLU().MaxPool(2).
		Flatten().Dense(4).Build()
	gradCheck(t, net, 3, 3, 0.05)
}

func TestGradCheckStridedConv(t *testing.T) {
	r := tensor.NewRNG(1)
	net := NewBuilder(2, []int{2, 7, 7}, 3, r).
		Conv(3, 3, 2, 1).ReLU().
		Flatten().Dense(3).Build()
	gradCheck(t, net, 2, 4, 0.05)
}

func TestGradCheckBatchNorm(t *testing.T) {
	r := tensor.NewRNG(1)
	net := NewBuilder(6, []int{2, 4, 4}, 3, r).
		Conv(3, 3, 1, 1).BN().ReLU().
		GlobalAvgPool().Dense(3).Build()
	gradCheck(t, net, 6, 5, 0.08)
}

func TestGradCheckBasicBlock(t *testing.T) {
	r := tensor.NewRNG(1)
	b := NewBuilder(4, []int{2, 6, 6}, 3, r)
	b.Conv(4, 3, 1, 1).BN().ReLU()
	b.BasicBlock(4, 1) // identity shortcut
	b.BasicBlock(6, 2) // projection shortcut
	net := b.GlobalAvgPool().Dense(3).Build()
	gradCheck(t, net, 4, 6, 0.1)
}

func TestGradCheckBottleneck(t *testing.T) {
	r := tensor.NewRNG(1)
	b := NewBuilder(4, []int{2, 6, 6}, 3, r)
	b.Conv(4, 3, 1, 1).BN().ReLU()
	b.BottleneckBlock(2, 8, 1)
	b.BottleneckBlock(3, 8, 2)
	net := b.GlobalAvgPool().Dense(3).Build()
	gradCheck(t, net, 4, 7, 0.1)
}

func TestGradCheckGlobalAvgPool(t *testing.T) {
	r := tensor.NewRNG(1)
	net := NewBuilder(3, []int{3, 4, 4}, 3, r).
		GlobalAvgPool().Dense(3).Build()
	gradCheck(t, net, 3, 8, 0.05)
}
