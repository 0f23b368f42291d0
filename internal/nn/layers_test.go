package nn

import (
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// swapNC returns a copy of the rank-4 tensor x with its two outer axes
// exchanged: an NCHW batch becomes the channel-major [C, N, H, W] a
// standalone spatial layer takes, and a layer's channel-major output becomes
// NCHW again. Every test that feeds a spatial layer directly, or reads its
// output by (n, c, h, w), converts here.
func swapNC(x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	y := tensor.New(s[1], s[0], s[2], s[3])
	tensor.SwapOuter(y.Data(), x.Data(), s[0], s[1], s[2]*s[3])
	return y
}

func TestDenseForwardKnownValues(t *testing.T) {
	d := NewDense(1, 2, 2)
	w := make([]float32, d.NumParams())
	g := make([]float32, d.NumParams())
	// W = [[1,2],[3,4]] (Out×In), b = [0.5, -0.5]
	copy(w, []float32{1, 2, 3, 4, 0.5, -0.5})
	d.Bind(w, g)
	x := tensor.FromSlice([]float32{10, 20}, 1, 2)
	y := d.Forward(x, true)
	if y.At(0, 0) != 50.5 || y.At(0, 1) != 109.5 {
		t.Fatalf("dense output %v %v", y.At(0, 0), y.At(0, 1))
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU(1, []int{4})
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 1, 4)
	y := r.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("relu forward %v", y.Data())
		}
	}
	dy := tensor.FromSlice([]float32{5, 6, 7, 8}, 1, 4)
	dx := r.Backward(dy)
	wantDx := []float32{0, 0, 7, 0}
	for i, v := range dx.Data() {
		if v != wantDx[i] {
			t.Fatalf("relu backward %v", dx.Data())
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool(1, []int{1, 4, 4}, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 9,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	want := []float32{4, 8, -1, 9}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("maxpool forward %v", y.Data())
		}
	}
	dy := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	dx := p.Backward(dy)
	// Gradient routes to the argmax positions only.
	var nz int
	for _, v := range dx.Data() {
		if v != 0 {
			nz++
		}
	}
	if nz != 4 {
		t.Fatalf("maxpool backward nonzeros = %d, want 4", nz)
	}
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 3, 3) != 1 {
		t.Fatal("maxpool gradient not routed to maxima")
	}
}

func TestMaxPoolNegativeInputs(t *testing.T) {
	// All-negative window must still pick the true maximum, not 0.
	p := NewMaxPool(1, []int{1, 2, 2}, 2)
	x := tensor.FromSlice([]float32{-5, -3, -9, -4}, 1, 1, 2, 2)
	y := p.Forward(x, true)
	if y.Data()[0] != -3 {
		t.Fatalf("maxpool of negatives = %v, want -3", y.Data()[0])
	}
}

func TestGlobalAvgPool(t *testing.T) {
	p := NewGlobalAvgPool(1, []int{2, 2, 2})
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := p.Forward(swapNC(x), true)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("gavg forward %v", y.Data())
	}
	dy := tensor.FromSlice([]float32{4, 8}, 1, 2)
	dx := swapNC(p.Backward(dy))
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 1, 1, 1) != 2 {
		t.Fatalf("gavg backward %v", dx.Data())
	}
}

func TestBatchNormNormalises(t *testing.T) {
	bn := NewBatchNorm(4, []int{1, 1, 1})
	w := make([]float32, bn.NumParams())
	g := make([]float32, bn.NumParams())
	bn.InitParams(tensor.NewRNG(1), w)
	bn.Bind(w, g)
	x := tensor.FromSlice([]float32{2, 4, 6, 8}, 4, 1, 1, 1)
	y := bn.Forward(swapNC(x), true)
	var mean, sq float64
	for _, v := range y.Data() {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range y.Data() {
		d := float64(v) - mean
		sq += d * d
	}
	if math.Abs(mean) > 1e-5 {
		t.Fatalf("bn output mean = %v", mean)
	}
	if v := sq / 4; math.Abs(v-1) > 1e-2 {
		t.Fatalf("bn output variance = %v", v)
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	bn := NewBatchNorm(8, []int{1, 1, 1})
	w := make([]float32, bn.NumParams())
	g := make([]float32, bn.NumParams())
	bn.InitParams(tensor.NewRNG(1), w)
	bn.Bind(w, g)
	// Feed a constant-distribution batch many times; running stats must
	// approach the batch statistics (mean 3, var 4 for values 1,5 repeated).
	vals := []float32{1, 5, 1, 5, 1, 5, 1, 5}
	x := swapNC(tensor.FromSlice(vals, 8, 1, 1, 1))
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	if math.Abs(float64(bn.runMean[0]-3)) > 0.05 {
		t.Fatalf("running mean = %v, want ~3", bn.runMean[0])
	}
	if math.Abs(float64(bn.runVar[0]-4)) > 0.1 {
		t.Fatalf("running var = %v, want ~4", bn.runVar[0])
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := NewDropout(1, []int{8}, 0.5, tensor.NewRNG(1))
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 1, 8)
	y := d.Forward(x, false)
	for i, v := range y.Data() {
		if v != x.Data()[i] {
			t.Fatal("dropout at eval must be identity")
		}
	}
}

func TestDropoutTrainPreservesExpectation(t *testing.T) {
	const n = 20000
	d := NewDropout(1, []int{n}, 0.3, tensor.NewRNG(7))
	x := tensor.New(1, n)
	x.Fill(1)
	y := d.Forward(x, true)
	m := tensor.Mean(y.Data())
	if math.Abs(m-1) > 0.03 {
		t.Fatalf("dropout expectation = %v, want ~1", m)
	}
}

func TestSoftmaxCELossKnownValue(t *testing.T) {
	l := NewSoftmaxCE(1, 2)
	logits := tensor.FromSlice([]float32{0, 0}, 1, 2)
	loss, dx := l.Loss(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(float64(dx.At(0, 0)+0.5)) > 1e-6 || math.Abs(float64(dx.At(0, 1)-0.5)) > 1e-6 {
		t.Fatalf("grad = %v", dx.Data())
	}
}

func TestSoftmaxCEGradientSumsToZero(t *testing.T) {
	l := NewSoftmaxCE(3, 5)
	r := tensor.NewRNG(9)
	logits := tensor.New(3, 5)
	for i := range logits.Data() {
		logits.Data()[i] = float32(r.NormFloat64())
	}
	_, dx := l.Loss(logits, []int{0, 2, 4})
	for n := 0; n < 3; n++ {
		var s float64
		for j := 0; j < 5; j++ {
			s += float64(dx.At(n, j))
		}
		if math.Abs(s) > 1e-5 {
			t.Fatalf("row %d gradient sum = %v", n, s)
		}
	}
}

func TestSoftmaxPredictions(t *testing.T) {
	l := NewSoftmaxCE(2, 3)
	logits := tensor.FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	l.Loss(logits, []int{0, 0})
	preds := l.Predictions(nil)
	if preds[0] != 1 || preds[1] != 0 {
		t.Fatalf("predictions = %v", preds)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten(2, []int{3, 2, 2})
	x := tensor.New(2, 3, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	y := f.Forward(swapNC(x), true)
	if y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	// Each sample's features come out in (c, h, w) order: the NCHW batch.
	for i, v := range y.Data() {
		if v != x.Data()[i] {
			t.Fatalf("flatten element %d = %v, want %v", i, v, x.Data()[i])
		}
	}
	dx := swapNC(f.Backward(y))
	if dx.Rank() != 4 || dx.Dim(1) != 3 {
		t.Fatalf("flatten backward shape %v", dx.Shape())
	}
	for i, v := range dx.Data() {
		if v != x.Data()[i] {
			t.Fatalf("flatten backward element %d = %v, want %v", i, v, x.Data()[i])
		}
	}
}
