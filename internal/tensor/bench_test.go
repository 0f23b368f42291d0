package tensor

import (
	"fmt"
	"testing"
)

// Kernel microbenchmarks at the shapes the scaled benchmark models actually
// run: conv-lowered GEMMs (M=OutC, K=InC·KH·KW, N=batch·OutH·OutW for the
// batched path), plus square shapes that stress the micro-kernel, and the
// flat vector ops at model-vector sizes. The repo benchmark's tensor.*
// probes (benchmark/) time the same kernels inside a training run.

type gemmShape struct {
	name    string
	m, k, n int
}

// gemmShapes: resnet32-s1/s2/s3 are the three ResNet-32 stages' batched
// forward GEMMs at b=16; dense-bwd is LeNet's classifier weight gradient;
// sq128/sq256 stress blocking on square operands.
var gemmShapes = []gemmShape{
	{"resnet32-s1", 8, 72, 1024},
	{"resnet32-s2", 16, 144, 256},
	{"resnet32-s3", 32, 288, 64},
	{"dense-bwd", 32, 144, 16},
	{"sq128", 128, 128, 128},
	{"sq256", 256, 256, 256},
}

func benchGemm(b *testing.B, f func(a []float32, m, k int, bm []float32, n int, c []float32), m, k, n int) {
	r := NewRNG(1)
	a := randSlice(r, m*k)
	bm := randSlice(r, k*n)
	c := make([]float32, m*n)
	b.SetBytes(int64(2 * m * k * n * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, m, k, bm, n, c)
	}
}

func BenchmarkGemm(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(s.name, func(b *testing.B) {
			benchGemm(b, func(a []float32, m, k int, bm []float32, n int, c []float32) {
				Gemm(1, a, m, k, bm, n, 0, c)
			}, s.m, s.k, s.n)
		})
	}
}

func BenchmarkGemmTA(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(s.name, func(b *testing.B) {
			// A stored k×m, logical Aᵀ.
			benchGemm(b, func(a []float32, m, k int, bm []float32, n int, c []float32) {
				GemmTA(1, a, k, m, bm, n, 0, c)
			}, s.m, s.k, s.n)
		})
	}
}

func BenchmarkGemmTB(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(s.name, func(b *testing.B) {
			r := NewRNG(1)
			a := randSlice(r, s.m*s.k)
			bm := randSlice(r, s.n*s.k) // stored n×k, logical Bᵀ
			c := make([]float32, s.m*s.n)
			b.SetBytes(int64(2 * s.m * s.k * s.n * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmTB(1, a, s.m, s.k, bm, s.n, 0, c)
			}
		})
	}
}

// convGeoms are the ResNet-32 stage geometries at the scaled 8×8 input.
var convGeoms = []ConvGeom{
	{InC: 8, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{InC: 16, InH: 4, InW: 4, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{InC: 32, InH: 2, InW: 2, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
}

func BenchmarkIm2col(b *testing.B) {
	for _, g := range convGeoms {
		b.Run(fmt.Sprintf("c%dh%d", g.InC, g.InH), func(b *testing.B) {
			r := NewRNG(1)
			img := randSlice(r, g.InC*g.InH*g.InW)
			col := make([]float32, g.ColRows()*g.ColCols())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Im2col(g, img, col)
			}
		})
	}
}

// lowerCases are the batched-lowering benchmark points: the three stride-1
// stage geometries at b=16 (the long-recorded rows) and at the benchmark
// workload's real b=4, plus the stage transitions' strided 3×3 convs and 1×1
// projections, which take the source-index path.
var lowerCases = func() (cs []lowerCase) {
	for _, batch := range []int{16, 4} {
		for _, g := range convGeoms {
			cs = append(cs, lowerCase{fmt.Sprintf("c%dh%db%d", g.InC, g.InH, batch), g, batch})
		}
	}
	for _, g := range convGeoms[:2] {
		s2 := g
		s2.OutC, s2.StrideH, s2.StrideW = 2*g.InC, 2, 2
		cs = append(cs, lowerCase{fmt.Sprintf("c%dh%ds2b4", g.InC, g.InH), s2, 4})
		s2.KH, s2.KW, s2.PadH, s2.PadW = 1, 1, 0, 0
		cs = append(cs, lowerCase{fmt.Sprintf("c%dh%dk1s2b4", g.InC, g.InH), s2, 4})
	}
	return cs
}()

type lowerCase struct {
	name  string
	g     ConvGeom
	batch int
}

func BenchmarkIm2colBatch(b *testing.B) {
	for _, c := range lowerCases {
		g, batch := c.g, c.batch
		b.Run(c.name, func(b *testing.B) {
			r := NewRNG(1)
			x := randSlice(r, batch*g.InVol())
			col := make([]float32, g.ColRows()*batch*g.ColCols())
			Im2colBatch(g, batch, x, col, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Im2colBatch(g, batch, x, col, true)
			}
		})
	}
}

func BenchmarkCol2imBatch(b *testing.B) {
	for _, c := range lowerCases {
		g, batch := c.g, c.batch
		b.Run(c.name, func(b *testing.B) {
			r := NewRNG(1)
			col := randSlice(r, g.ColRows()*batch*g.ColCols())
			x := make([]float32, batch*g.InVol())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Col2imBatch(g, batch, col, x)
			}
		})
	}
}

func BenchmarkCol2im(b *testing.B) {
	for _, g := range convGeoms {
		b.Run(fmt.Sprintf("c%dh%d", g.InC, g.InH), func(b *testing.B) {
			r := NewRNG(1)
			col := randSlice(r, g.ColRows()*g.ColCols())
			img := make([]float32, g.InC*g.InH*g.InW)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Col2im(g, col, img)
			}
		})
	}
}

// Model-vector sizes for the flat ops: the scaled ResNet-32 is ~20k
// parameters; 500k matches the optimiser-path benchmark in the root package.
var vecSizes = []int{20_000, 500_000}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range vecSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			r := NewRNG(1)
			x := randSlice(r, n)
			y := randSlice(r, n)
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x, y)
			}
		})
	}
}

// benchSink keeps pure-function results observable so the inliner cannot
// hollow out the benchmark loop.
var benchSink float64

func BenchmarkDot(b *testing.B) {
	for _, n := range vecSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			r := NewRNG(1)
			x := randSlice(r, n)
			y := randSlice(r, n)
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = Dot(x, y)
			}
		})
	}
}
