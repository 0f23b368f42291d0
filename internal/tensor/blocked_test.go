package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Property tests pinning the blocked/parallel/SIMD kernels against the
// scalar reference kernels (gemm_ref.go). The determinism contract they
// verify, per DESIGN.md §8:
//
//   - Gemm and GemmTA are bit-identical to the reference for every alpha,
//     beta and shape: each output element accumulates in ascending-p order
//     with the accumulator preloaded from beta-scaled C, exactly like the
//     reference loops.
//   - GemmTB is bit-identical while k ≤ gemmKC (every shape the scaled
//     models produce). For k > gemmKC the per-panel `c += alpha*Σ`
//     regrouping can differ from the reference's single sum in the last
//     bits, bounded by standard forward-error analysis — asserted with an
//     explicit error bound rather than equality.
//   - Results are bit-identical at any worker count and between the SIMD
//     and pure-Go micro-kernels.

// gemmCase enumerates odd shapes, panel-crossing k, alpha/beta variants.
type gemmCase struct {
	m, k, n     int
	alpha, beta float32
}

func gemmCases() []gemmCase {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 3}, {3, 2, 9}, {4, 8, 8}, {5, 5, 5},
		{7, 13, 11}, {8, 72, 33}, {9, 300, 17}, {13, 517, 21},
		{16, 144, 64}, {31, 3, 31}, {33, 260, 40}, {64, 64, 64},
	}
	var cases []gemmCase
	for _, s := range shapes {
		for _, ab := range [][2]float32{{1, 0}, {1, 1}, {0.5, 0.7}, {1.3, 1}, {0, 0.5}} {
			cases = append(cases, gemmCase{s[0], s[1], s[2], ab[0], ab[1]})
		}
	}
	return cases
}

func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d differs: got %v (%#x) want %v (%#x)",
				name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestGemmBitIdenticalToReference(t *testing.T) {
	r := NewRNG(101)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.m*tc.k)
		b := randSlice(r, tc.k*tc.n)
		c0 := randSlice(r, tc.m*tc.n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		Gemm(tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, got)
		gemmRef(tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, want)
		bitsEqual(t, "Gemm", got, want)
	}
}

func TestGemmTABitIdenticalToReference(t *testing.T) {
	r := NewRNG(103)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.k*tc.m) // stored k×m
		b := randSlice(r, tc.k*tc.n)
		c0 := randSlice(r, tc.m*tc.n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		GemmTA(tc.alpha, a, tc.k, tc.m, b, tc.n, tc.beta, got)
		gemmTARef(tc.alpha, a, tc.k, tc.m, b, tc.n, tc.beta, want)
		bitsEqual(t, "GemmTA", got, want)
	}
}

func TestGemmTBReference(t *testing.T) {
	r := NewRNG(107)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.m*tc.k)
		b := randSlice(r, tc.n*tc.k) // stored n×k
		c0 := randSlice(r, tc.m*tc.n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		GemmTB(tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, got)
		gemmTBRef(tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, want)
		if tc.k <= gemmKC {
			bitsEqual(t, "GemmTB", got, want)
			continue
		}
		// k crosses a panel boundary: summation regroups. Any two orderings
		// of Σ alpha·a·b + beta·c differ by at most 2(k+2)·eps·(Σ|alpha·a·b|
		// + |beta·c|).
		const eps = 1.0 / (1 << 24)
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.n; j++ {
				var mag float64
				for p := 0; p < tc.k; p++ {
					mag += math.Abs(float64(tc.alpha) * float64(a[i*tc.k+p]) * float64(b[j*tc.k+p]))
				}
				mag += math.Abs(float64(tc.beta) * float64(c0[i*tc.n+j]))
				bound := 2 * float64(tc.k+2) * eps * mag
				d := math.Abs(float64(got[i*tc.n+j]) - float64(want[i*tc.n+j]))
				if d > bound {
					t.Fatalf("GemmTB k=%d element (%d,%d): |%v-%v| = %g exceeds bound %g",
						tc.k, i, j, got[i*tc.n+j], want[i*tc.n+j], d, bound)
				}
			}
		}
	}
}

// TestGemmSIMDMatchesGeneric pins the assembly micro-kernels against the
// pure-Go ones bit-for-bit (no-op on architectures without assembly).
func TestGemmSIMDMatchesGeneric(t *testing.T) {
	r := NewRNG(109)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.m*tc.k)
		at := randSlice(r, tc.k*tc.m)
		b := randSlice(r, tc.k*tc.n)
		bt := randSlice(r, tc.n*tc.k)
		c0 := randSlice(r, tc.m*tc.n)

		run := func() [3][]float32 {
			var out [3][]float32
			for v := range out {
				out[v] = append([]float32(nil), c0...)
			}
			Gemm(tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, out[0])
			GemmTA(tc.alpha, at, tc.k, tc.m, b, tc.n, tc.beta, out[1])
			GemmTB(tc.alpha, a, tc.m, tc.k, bt, tc.n, tc.beta, out[2])
			return out
		}
		simd := run()
		prevZ := setGemmZ(false) // the AVX2 tile (no-op without AVX-512)
		avx2 := run()
		setGemmZ(prevZ)
		prev := setGemmASM(false)
		generic := run()
		setGemmASM(prev)
		for v, name := range []string{"Gemm", "GemmTA", "GemmTB"} {
			bitsEqual(t, name+" simd-vs-generic", simd[v], generic[v])
			bitsEqual(t, name+" avx2-vs-generic", avx2[v], generic[v])
		}
	}
}

// TestGemmParallelBitIdentical verifies the worker-count independence half
// of the determinism contract: disjoint output bands at any parallelism
// level produce the same bits — for all three kinds, split by rows and by
// columns, on the AVX-512 tile and (setGemmZ(false)) on the AVX2 one, whose
// bands are cut in different units.
func TestGemmParallelBitIdentical(t *testing.T) {
	r := NewRNG(113)
	prev := Parallelism()
	defer SetParallelism(prev)
	for _, sh := range [][3]int{{67, 130, 259}, {259, 131, 67}} { // odd everything, large enough to split
		m, k, n := sh[0], sh[1], sh[2]
		a, at := randSlice(r, m*k), randSlice(r, k*m)
		b, bt := randSlice(r, k*n), randSlice(r, n*k)
		c0 := randSlice(r, m*n)
		var want [3][]float32
		for _, z := range []bool{true, false} {
			prevZ := setGemmZ(z)
			for _, workers := range []int{1, 2, 4, 13} {
				SetParallelism(workers)
				var got [3][]float32
				for v := range got {
					got[v] = append([]float32(nil), c0...)
				}
				Gemm(1.1, a, m, k, b, n, 0.9, got[0])
				GemmTA(1, at, k, m, b, n, 1, got[1])
				GemmTB(1.1, a, m, k, bt, n, 0.9, got[2])
				if want[0] == nil {
					want = got
					continue
				}
				for v, name := range []string{"Gemm", "GemmTA", "GemmTB"} {
					bitsEqual(t, fmt.Sprintf("%s parallel z=%v workers=%d", name, z, workers), got[v], want[v])
				}
			}
			setGemmZ(prevZ)
		}
	}
}

func TestParallelForPartition(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	for _, workers := range []int{1, 3, 8} {
		SetParallelism(workers)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{1, 10, 4096} {
				var mu = make([]int32, n)
				done := make(chan struct{})
				go func() {
					defer close(done)
					ParallelFor(n, grain, func(lo, hi int) {
						// Nested use must not deadlock.
						ParallelFor(hi-lo, 8, func(l2, h2 int) {
							for i := lo + l2; i < lo+h2; i++ {
								mu[i]++
							}
						})
					})
				}()
				<-done
				for i, v := range mu {
					if v != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d covered %d times", workers, n, grain, i, v)
					}
				}
			}
		}
	}
}

// TestIm2colBatchMatchesPerSample: the batched lowering is the per-sample
// kernel at a column offset — bit-identical, also into a used buffer with
// the (ignored) skipPad argument set.
func TestIm2colBatchMatchesPerSample(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 7, InW: 9, OutC: 3, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 2, InH: 6, InW: 6, OutC: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
		{InC: 1, InH: 5, InW: 4, OutC: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{InC: 2, InH: 8, InW: 8, OutC: 2, KH: 1, KW: 1, StrideH: 2, StrideW: 2, PadH: 0, PadW: 0},
	}
	r := NewRNG(127)
	const batch = 5
	for gi, g := range geoms {
		s := g.ColCols()
		x := randSlice(r, batch*g.InVol())
		col := make([]float32, g.ColRows()*batch*s)
		Im2colBatch(g, batch, x, col, false)

		want := make([]float32, g.ColRows()*s)
		for n := 0; n < batch; n++ {
			Im2col(g, x[n*g.InVol():(n+1)*g.InVol()], want)
			for row := 0; row < g.ColRows(); row++ {
				for i := 0; i < s; i++ {
					got := col[row*batch*s+n*s+i]
					if math.Float32bits(got) != math.Float32bits(want[row*s+i]) {
						t.Fatalf("geom %d sample %d row %d col %d: %v != %v", gi, n, row, i, got, want[row*s+i])
					}
				}
			}
		}

		// New data into the same, now dirty, buffer.
		x2 := randSlice(r, batch*g.InVol())
		Im2colBatch(g, batch, x2, col, true)
		fresh := make([]float32, len(col))
		Im2colBatch(g, batch, x2, fresh, false)
		bitsEqual(t, "Im2colBatch skipPad", col, fresh)
	}
}

func TestCol2imBatchMatchesPerSample(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 7, InW: 9, OutC: 3, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 2, InH: 6, InW: 6, OutC: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
	}
	r := NewRNG(131)
	const batch = 4
	for gi, g := range geoms {
		s := g.ColCols()
		col := randSlice(r, g.ColRows()*batch*s)
		x := make([]float32, batch*g.InVol())
		Col2imBatch(g, batch, col, x)

		sample := make([]float32, g.ColRows()*s)
		want := make([]float32, g.InVol())
		for n := 0; n < batch; n++ {
			for row := 0; row < g.ColRows(); row++ {
				copy(sample[row*s:(row+1)*s], col[row*batch*s+n*s:row*batch*s+(n+1)*s])
			}
			for i := range want {
				want[i] = 0
			}
			Col2im(g, sample, want)
			got := x[n*g.InVol() : (n+1)*g.InVol()]
			bitsEqual(t, "Col2imBatch", got, want)
			_ = gi
		}
	}
}
