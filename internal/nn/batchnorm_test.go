package nn

import (
	"fmt"
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// refBatchNorm is the batch-norm layer as it ran over NCHW activations
// before they went channel-major: forwardChannels and backwardChannels
// copied verbatim, serial float64 channel sums in (n, i) order.
type refBatchNorm struct {
	C, batch        int
	Momentum, Eps   float32
	gamma, beta     []float32
	runMean, runVar []float32
	gGamma, gBeta   []float32
	xhat            []float32
	mean, invStd    []float32
	train           bool
}

func (b *refBatchNorm) forwardChannels(xd, yd []float32, plane, count int, train bool, cLo, cHi int) {
	for c := cLo; c < cHi; c++ {
		var mean, invStd float32
		if train {
			var s float64
			for n := 0; n < b.batch; n++ {
				off := (n*b.C + c) * plane
				for _, v := range xd[off : off+plane] {
					s += float64(v)
				}
			}
			mean = float32(s / float64(count))
			var sq float64
			for n := 0; n < b.batch; n++ {
				off := (n*b.C + c) * plane
				for _, v := range xd[off : off+plane] {
					d := float64(v - mean)
					sq += d * d
				}
			}
			variance := float32(sq / float64(count))
			invStd = 1 / float32(math.Sqrt(float64(variance)+float64(b.Eps)))
			// Update running statistics in the model vector.
			b.runMean[c] = b.Momentum*b.runMean[c] + (1-b.Momentum)*mean
			b.runVar[c] = b.Momentum*b.runVar[c] + (1-b.Momentum)*variance
		} else {
			mean = b.runMean[c]
			invStd = 1 / float32(math.Sqrt(float64(b.runVar[c])+float64(b.Eps)))
		}
		b.mean[c], b.invStd[c] = mean, invStd
		g, bt := b.gamma[c], b.beta[c]
		for n := 0; n < b.batch; n++ {
			off := (n*b.C + c) * plane
			for i := off; i < off+plane; i++ {
				xh := (xd[i] - mean) * invStd
				b.xhat[i] = xh
				yd[i] = g*xh + bt
			}
		}
	}
}

func (b *refBatchNorm) backwardChannels(dyd, dxd []float32, plane int, count float32, cLo, cHi int) {
	for c := cLo; c < cHi; c++ {
		var sumDy, sumDyXhat float64
		for n := 0; n < b.batch; n++ {
			off := (n*b.C + c) * plane
			for i := off; i < off+plane; i++ {
				sumDy += float64(dyd[i])
				sumDyXhat += float64(dyd[i]) * float64(b.xhat[i])
			}
		}
		b.gBeta[c] += float32(sumDy)
		b.gGamma[c] += float32(sumDyXhat)

		g := b.gamma[c]
		invStd := b.invStd[c]
		if !b.train {
			// Evaluation-mode backward (used only in gradient tests):
			// statistics are constants.
			for n := 0; n < b.batch; n++ {
				off := (n*b.C + c) * plane
				for i := off; i < off+plane; i++ {
					dxd[i] = dyd[i] * g * invStd
				}
			}
			continue
		}
		mDy := float32(sumDy) / count
		mDyXhat := float32(sumDyXhat) / count
		for n := 0; n < b.batch; n++ {
			off := (n*b.C + c) * plane
			for i := off; i < off+plane; i++ {
				dxd[i] = g * invStd * (dyd[i] - mDy - b.xhat[i]*mDyXhat)
			}
		}
	}
}

// TestBatchNormMatchesNCHWLoops pins the channel-major layer, its row
// kernels and its channel-parallel chunking to the pre-change NCHW loops bit
// for bit: outputs, input gradients, parameter gradients and the running
// statistics it writes into the model vector, in training and evaluation
// mode, with channel counts below, at and beyond a SIMD group of eight, with
// the channels on one kernel worker and split over three. (The same values
// hold under CROSSBOW_NOSIMD=1, where the kernels run their scalar loops.)
func TestBatchNormMatchesNCHWLoops(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	rng := tensor.NewRNG(17)
	fill := func(n int, scale float64) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64() * scale)
		}
		return s
	}
	eq := func(name string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d: %v != %v", name, i, got[i], want[i])
			}
		}
	}
	for _, workers := range []int{1, 3} {
		tensor.SetParallelism(workers)
		for _, C := range []int{3, 8, 12, 32} {
			for _, batch := range []int{1, 4, 5} {
				for _, hw := range [][2]int{{1, 1}, {2, 2}, {8, 8}, {24, 24}} {
					plane := hw[0] * hw[1]
					for _, train := range []bool{true, false} {
						name := fmt.Sprintf("workers=%d C=%d N=%d plane=%d train=%v", workers, C, batch, plane, train)
						bn := NewBatchNorm(batch, []int{C, hw[0], hw[1]})
						w, g := fill(4*C, 1), fill(4*C, 1)
						for c := 0; c < C; c++ {
							w[3*C+c] = 0.5 + w[3*C+c]*w[3*C+c] // running variance > 0
						}
						wRef, gRef := append([]float32(nil), w...), append([]float32(nil), g...)
						bn.Bind(w, g)
						ref := &refBatchNorm{
							C: C, batch: batch, Momentum: bn.Momentum, Eps: bn.Eps, train: train,
							gamma: wRef[:C], beta: wRef[C : 2*C], runMean: wRef[2*C : 3*C], runVar: wRef[3*C:],
							gGamma: gRef[:C], gBeta: gRef[C : 2*C],
							xhat: make([]float32, batch*C*plane), mean: make([]float32, C), invStd: make([]float32, C),
						}

						x := tensor.FromSlice(fill(batch*C*plane, 3), batch, C, hw[0], hw[1])
						dy := tensor.FromSlice(fill(batch*C*plane, 1), batch, C, hw[0], hw[1])
						wantY, wantDx := make([]float32, x.Len()), make([]float32, x.Len())
						ref.forwardChannels(x.Data(), wantY, plane, batch*plane, train, 0, C)
						ref.backwardChannels(dy.Data(), wantDx, plane, float32(batch*plane), 0, C)

						y := swapNC(bn.Forward(swapNC(x), train))
						dx := swapNC(bn.Backward(swapNC(dy)))
						eq(name+" y", y.Data(), wantY)
						eq(name+" dx", dx.Data(), wantDx)
						eq(name+" params and running statistics", w, wRef)
						eq(name+" gradients", g, gRef)
					}
				}
			}
		}
	}
}
