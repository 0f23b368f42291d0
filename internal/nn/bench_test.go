package nn

import (
	"fmt"
	"testing"

	"crossbow/internal/tensor"
)

// Layer microbenchmarks at the scaled ResNet-32's three stage shapes
// (channels × plane: 8 × 8×8, 16 × 4×4, 32 × 2×2), at the benchmark
// workload's b=4 and at b=16: the batch-norm passes and the conv backward,
// the two layer costs the channel-row kernels carry. SetBytes counts the
// activation elements a pass reads and writes, so MB/s compares shapes.

var stageShapes = [][]int{{8, 8, 8}, {16, 4, 4}, {32, 2, 2}}

func benchStages(b *testing.B, run func(b *testing.B, batch int, shape []int)) {
	for _, batch := range []int{4, 16} {
		for _, shape := range stageShapes {
			b.Run(fmt.Sprintf("c%dh%db%d", shape[0], shape[1], batch), func(b *testing.B) {
				run(b, batch, shape)
			})
		}
	}
}

func randTensor(r *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(r.NormFloat64())
	}
	return t
}

func benchBatchNorm(b *testing.B, batch int, shape []int, backward bool) {
	r := tensor.NewRNG(1)
	bn := NewBatchNorm(batch, shape)
	w, g := make([]float32, bn.NumParams()), make([]float32, bn.NumParams())
	bn.InitParams(r, w)
	bn.Bind(w, g)
	x, dy := randTensor(r, actShape(batch, shape)...), randTensor(r, actShape(batch, shape)...)
	bn.Forward(x, true)
	b.SetBytes(int64(3 * x.Len() * 4)) // forward: x, x̂, y; backward: dY, x̂, dX
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if backward {
			bn.Backward(dy)
		} else {
			bn.Forward(x, true)
		}
	}
}

func BenchmarkBatchNormFwd(b *testing.B) {
	benchStages(b, func(b *testing.B, batch int, shape []int) { benchBatchNorm(b, batch, shape, false) })
}

func BenchmarkBatchNormBwd(b *testing.B) {
	benchStages(b, func(b *testing.B, batch int, shape []int) { benchBatchNorm(b, batch, shape, true) })
}

// BenchmarkConvBackward times a stage's 3×3 stride-1 conv backward: bias
// sums, dYᵀ, the weight-gradient GEMM and its transposed add, the
// input-gradient GEMM and col2im.
func BenchmarkConvBackward(b *testing.B) {
	benchStages(b, func(b *testing.B, batch int, shape []int) {
		r := tensor.NewRNG(1)
		c := NewConv2D(batch, shape, shape[0], 3, 1, 1)
		w, g := make([]float32, c.NumParams()), make([]float32, c.NumParams())
		c.InitParams(r, w)
		c.Bind(w, g)
		x, dy := randTensor(r, actShape(batch, shape)...), randTensor(r, actShape(batch, shape)...)
		c.Forward(x, true)
		b.SetBytes(int64((2*x.Len() + 2*len(c.col)) * 4)) // dY, dX, col, dcol
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.colFresh = true // col still holds im2col(x), as after a task's forward
			c.Backward(dy)
		}
	})
}
