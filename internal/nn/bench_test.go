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

// gemmShape is one GEMM call of a learning task: kind 'n' is Gemm, 'a' GemmTA
// (A stored k×m), 'b' GemmTB (B stored n×k); beta is what the layer passes.
type gemmShape struct {
	m, k, n int
	kind    byte
	beta    float32
}

// taskGemms lists the GEMM calls of one learning task of net in layer order:
// per conv the forward, weight-gradient and input-gradient products, per
// dense layer likewise (the calls Conv2D and Dense make, batch folded in).
// A network's first conv has no input gradient to compute (Conv2D.netIn),
// so it makes two.
func taskGemms(net *Network) []gemmShape {
	var gs []gemmShape
	walkLayers(net.Layers(), func(l Layer) {
		switch v := l.(type) {
		case *Conv2D:
			g := v.Geom
			ns := net.Batch * g.ColCols()
			gs = append(gs,
				gemmShape{g.OutC, g.ColRows(), ns, 'n', 0},
				gemmShape{g.ColRows(), ns, g.OutC, 'n', 0})
			if !v.netIn {
				gs = append(gs, gemmShape{g.ColRows(), g.OutC, ns, 'a', 0})
			}
		case *Dense:
			gs = append(gs,
				gemmShape{net.Batch, v.In, v.Out, 'b', 0},
				gemmShape{v.Out, net.Batch, v.In, 'a', 1},
				gemmShape{net.Batch, v.Out, v.In, 'n', 0})
		}
	})
	return gs
}

// BenchmarkGemmTaskShapes is the kernel sizing table: every distinct GEMM
// shape of the scaled ResNet-32 task (b = 4, the train-resnet32 workload's,
// and b = 16) and of the LeNet task (b = 2, train-lenet-fcfs's), warm and on
// one thread, as GFLOP/s; ×N in the name is how many calls of a task have
// that shape. The whole task is Σ calls·2mkn / GFLOP/s.
func BenchmarkGemmTaskShapes(b *testing.B) {
	defer tensor.SetWorkerBudget(tensor.WorkerBudget())
	tensor.SetWorkerBudget(1)
	for _, mb := range []struct {
		id    ModelID
		batch int
	}{{ResNet32, 4}, {ResNet32, 16}, {LeNet, 2}} {
		var shapes []gemmShape
		calls := map[gemmShape]int{}
		for _, g := range taskGemms(BuildScaled(mb.id, mb.batch, tensor.NewRNG(1))) {
			if calls[g]++; calls[g] == 1 {
				shapes = append(shapes, g)
			}
		}
		r := tensor.NewRNG(2)
		for _, g := range shapes {
			name := fmt.Sprintf("%s/b%d/%dx%dx%d%c×%d", mb.id, mb.batch, g.m, g.k, g.n, g.kind, calls[g])
			b.Run(name, func(b *testing.B) {
				x, y, c := randTensor(r, g.m*g.k).Data(), randTensor(r, g.k*g.n).Data(), make([]float32, g.m*g.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch g.kind {
					case 'a':
						tensor.GemmTA(1, x, g.k, g.m, y, g.n, g.beta, c)
					case 'b':
						tensor.GemmTB(1, x, g.m, g.k, y, g.n, g.beta, c)
					default:
						tensor.Gemm(1, x, g.m, g.k, y, g.n, g.beta, c)
					}
				}
				b.ReportMetric(2*float64(g.m)*float64(g.k)*float64(g.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}

// BenchmarkMaxPool times the scaled LeNet's two pools (8 × 12×12 and
// 16 × 6×6 planes) at train-lenet-fcfs's b = 2 and at b = 16: a training
// forward (y and argmax), the backward, and the branchy loop the kernels
// replaced (pool_test.go). Every iteration takes the next of 64 distinct
// random inputs. That is the point of the benchmark: which element of a
// window wins is a coin toss on fresh activations, and on one fixed input
// the branch predictor memorises the tosses — the old loop then reads
// 2.5 ns an element where it cost 6 in training (8 µs a task measured
// alone, 20 µs in situ). ns/op ÷ input elements is the figure to compare.
func BenchmarkMaxPool(b *testing.B) {
	const inputs = 64
	for _, batch := range []int{2, 16} {
		for _, shape := range [][]int{{8, 12, 12}, {16, 6, 6}} {
			r := tensor.NewRNG(1)
			p := NewMaxPool(batch, shape, 2)
			xs, dys := make([]*tensor.Tensor, inputs), make([]*tensor.Tensor, inputs)
			for i := range xs {
				xs[i] = randTensor(r, actShape(batch, shape)...)
				dys[i] = randTensor(r, actShape(batch, p.OutShape())...)
			}
			name := fmt.Sprintf("c%dh%db%d", shape[0], shape[1], batch)
			b.Run(name+"/fwd", func(b *testing.B) {
				b.SetBytes(int64(xs[0].Len() * 4))
				for i := 0; i < b.N; i++ {
					p.Forward(xs[i%inputs], true)
				}
			})
			b.Run(name+"/bwd", func(b *testing.B) {
				p.Forward(xs[0], true)
				b.SetBytes(int64(xs[0].Len() * 4))
				for i := 0; i < b.N; i++ {
					p.Backward(dys[i%inputs])
				}
			})
			b.Run(name+"/old-fwd", func(b *testing.B) {
				b.SetBytes(int64(xs[0].Len() * 4))
				for i := 0; i < b.N; i++ {
					refMaxPoolForward(xs[i%inputs].Data(), shape[0]*batch, shape[1], shape[2], 2)
				}
			})
		}
	}
}
