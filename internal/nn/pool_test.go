package nn

import (
	"fmt"
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// refMaxPoolForward is MaxPool.forwardChunk as it stood before the kernels
// of tensor/pool.go: one data-dependent branch per element. It is the
// definition the kernels are held to; this file is the only place it lives.
func refMaxPoolForward(xd []float32, planes, inH, inW, k int) (yd []float32, argmax []int32) {
	outH, outW := inH/k, inW/k
	yd, argmax = make([]float32, planes*outH*outW), make([]int32, planes*outH*outW)
	oi := 0
	for q := 0; q < planes; q++ {
		base := q * inH * inW
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				best := float32(0)
				bi := -1
				for kh := 0; kh < k; kh++ {
					row := base + (oh*k+kh)*inW + ow*k
					for kw := 0; kw < k; kw++ {
						if v := xd[row+kw]; bi < 0 || v > best {
							best, bi = v, row+kw
						}
					}
				}
				yd[oi] = best
				argmax[oi] = int32(bi)
				oi++
			}
		}
	}
	return yd, argmax
}

// refMaxPoolBackward is the old backwardChunk: clear, then scatter-add.
func refMaxPoolBackward(dyd []float32, argmax []int32, inLen int) []float32 {
	dxd := make([]float32, inLen)
	for i, a := range argmax {
		dxd[a] += dyd[i]
	}
	return dxd
}

var poolEdges = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1,
}

// poolTestFill: a third IEEE corners, a third small integers (ties, and
// whole windows of one value), a third ordinary values.
func poolTestFill(r *tensor.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch r.Intn(3) {
		case 0:
			s[i] = poolEdges[r.Intn(len(poolEdges))]
		case 1:
			s[i] = float32(r.Intn(2))
		default:
			s[i] = float32(r.NormFloat64())
		}
	}
	return s
}

func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: [%d] = %08x (%v), want %08x (%v)", name, i, g, got[i], w, want[i])
		}
	}
}

// TestMaxPoolMatchesReference holds the layer — and through it
// tensor.MaxPoolFwd/Bwd at whatever SIMD level the process runs (CI repeats
// the package under CROSSBOW_NOAVX512=1 and CROSSBOW_NOSIMD=1) — to the old
// branchy loops, byte for byte on y, argmax and dx: windows of 2 and 3,
// LeNet's 12×12 and 6×6 planes, a 7×7 whose last row and column no window
// covers, a single-window 2×2, a 21×21 wide enough for the ZMM kernel,
// batches 1, 2 and 16, inputs dense in NaN, ±Inf, +0/−0 ties and all-equal
// windows, gradients with −0 and NaN. A forward-only pass must give the
// same y and leave argmax alone.
// Mutation-checked: `>=` for `>` in any of the three kernels fails it.
func TestMaxPoolMatchesReference(t *testing.T) {
	r := tensor.NewRNG(11)
	for _, k := range []int{2, 3} {
		for _, hw := range []int{12, 6, 7, 2, 21} {
			if hw < k {
				continue // a 2×2 plane has no 3×3 window
			}
			for _, batch := range []int{1, 2, 16} {
				const c = 3
				name := fmt.Sprintf("k=%d %dx%d batch=%d", k, hw, hw, batch)
				p := NewMaxPool(batch, []int{c, hw, hw}, k)
				oh := hw / k
				for trial := 0; trial < 4; trial++ {
					x := tensor.FromSlice(poolTestFill(r, c*batch*hw*hw), c, batch, hw, hw)
					dy := tensor.FromSlice(poolTestFill(r, c*batch*oh*oh), c, batch, oh, oh)
					wantY, wantArg := refMaxPoolForward(x.Data(), c*batch, hw, hw, k)
					wantDx := refMaxPoolBackward(dy.Data(), wantArg, x.Len())

					y := p.Forward(x, true)
					sameBits(t, name+" y", y.Data(), wantY)
					for i, a := range wantArg {
						if p.argmax[i] != a {
							t.Fatalf("%s: argmax[%d] = %d, want %d", name, i, p.argmax[i], a)
						}
					}
					sameBits(t, name+" dx", p.Backward(dy).Data(), wantDx)

					for i := range p.argmax {
						p.argmax[i] = -7
					}
					clear(y.Data())
					sameBits(t, name+" forward-only y", p.Forward(x, false).Data(), wantY)
					for i, a := range p.argmax {
						if a != -7 {
							t.Fatalf("%s: forward-only pass wrote argmax[%d] = %d", name, i, a)
						}
					}
				}
			}
		}
	}
}
