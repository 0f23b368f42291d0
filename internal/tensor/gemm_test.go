package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference implementation all Gemm variants are checked
// against.
func naiveGemm(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			out[i*n+j] = alpha*s + beta*c[i*n+j]
		}
	}
	copy(c, out)
}

func randSlice(r *RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
	return s
}

func sliceClose(t *testing.T, got, want []float32, tol float64) {
	t.Helper()
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > tol {
			t.Fatalf("element %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	r := NewRNG(17)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 2, 9}, {16, 16, 16}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randSlice(r, m*k)
		b := randSlice(r, k*n)
		c1 := randSlice(r, m*n)
		c2 := append([]float32(nil), c1...)
		Gemm(1.3, a, m, k, b, n, 0.7, c1)
		naiveGemm(1.3, a, m, k, b, n, 0.7, c2)
		sliceClose(t, c1, c2, 1e-4)
	}
}

// TestGemmBetaZeroIgnoresGarbage: with beta == 0 C is never read — a C full
// of NaN gives the bits a C full of zeros gives, for all three kinds, odd
// shapes through the direct and the packed drivers, at every ISA level.
func TestGemmBetaZeroIgnoresGarbage(t *testing.T) {
	r := NewRNG(19)
	run := func(level string) {
		for _, sh := range [][3]int{{1, 2, 1}, {3, 5, 7}, {9, 27, 33}, {13, 261, 19}} {
			m, k, n := sh[0], sh[1], sh[2]
			a, at := randSlice(r, m*k), randSlice(r, k*m)
			b, bt := randSlice(r, k*n), randSlice(r, n*k)
			for _, alpha := range []float32{1, 0.5} {
				var got, want [3][]float32
				for v := range got {
					got[v], want[v] = nanFill(m*n), make([]float32, m*n)
				}
				for _, c := range [][3][]float32{got, want} {
					Gemm(alpha, a, m, k, b, n, 0, c[0])
					GemmTA(alpha, at, k, m, b, n, 0, c[1])
					GemmTB(alpha, a, m, k, bt, n, 0, c[2])
				}
				for v, name := range []string{"Gemm", "GemmTA", "GemmTB"} {
					bitsEqual(t, fmt.Sprintf("%s %s %dx%dx%d alpha=%v", level, name, m, k, n, alpha), got[v], want[v])
				}
			}
		}
	}
	run("simd")
	prevZ := setGemmZ(false)
	run("avx2")
	setGemmZ(prevZ)
	prev := setGemmASM(false)
	run("go")
	setGemmASM(prev)
}

func TestGemmAlphaZeroScalesOnly(t *testing.T) {
	c := []float32{2, 4}
	Gemm(0, []float32{1, 1}, 2, 1, []float32{1}, 1, 0.5, c)
	if c[0] != 1 || c[1] != 2 {
		t.Fatalf("got %v", c)
	}
}

func TestGemmTAMatchesTransposedNaive(t *testing.T) {
	r := NewRNG(23)
	m, k, n := 4, 6, 5
	// a is stored k×m; logical operand is aᵀ (m×k).
	a := randSlice(r, k*m)
	b := randSlice(r, k*n)
	c1 := make([]float32, m*n)
	GemmTA(1, a, k, m, b, n, 0, c1)

	at := make([]float32, m*k)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			at[i*k+p] = a[p*m+i]
		}
	}
	c2 := make([]float32, m*n)
	naiveGemm(1, at, m, k, b, n, 0, c2)
	sliceClose(t, c1, c2, 1e-4)
}

func TestGemmTBMatchesTransposedNaive(t *testing.T) {
	r := NewRNG(29)
	m, k, n := 3, 7, 4
	a := randSlice(r, m*k)
	// b is stored n×k; logical operand is bᵀ (k×n).
	b := randSlice(r, n*k)
	c1 := make([]float32, m*n)
	GemmTB(1, a, m, k, b, n, 0, c1)

	bt := make([]float32, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			bt[p*n+j] = b[j*k+p]
		}
	}
	c2 := make([]float32, m*n)
	naiveGemm(1, a, m, k, bt, n, 0, c2)
	sliceClose(t, c1, c2, 1e-4)
}

// Property: Gemm agrees with the naive reference on random small shapes.
func TestGemmProperty(t *testing.T) {
	f := func(seed uint64, md, kd, nd uint8) bool {
		m, k, n := int(md%6)+1, int(kd%6)+1, int(nd%6)+1
		r := NewRNG(seed)
		a := randSlice(r, m*k)
		b := randSlice(r, k*n)
		c1 := randSlice(r, m*n)
		c2 := append([]float32(nil), c1...)
		Gemm(0.5, a, m, k, b, n, 1.5, c1)
		naiveGemm(0.5, a, m, k, b, n, 1.5, c2)
		for i := range c1 {
			if math.Abs(float64(c1[i]-c2[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVecOps(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	Axpy(2, x, y)
	want := []float32{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy: %v", y)
		}
	}
	Scal(0.5, y)
	if y[0] != 3 || y[2] != 6 {
		t.Fatalf("Scal: %v", y)
	}
	if d := Dot(x, x); d != 14 {
		t.Fatalf("Dot = %v", d)
	}
	dst := make([]float32, 3)
	Sub(dst, y, x)
	if dst[0] != 2 {
		t.Fatalf("Sub: %v", dst)
	}
	Add(dst, x, x)
	if dst[2] != 6 {
		t.Fatalf("Add: %v", dst)
	}
}

func TestAverageInto(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 6}
	dst := make([]float32, 2)
	AverageInto(dst, a, b)
	if dst[0] != 2 || dst[1] != 4 {
		t.Fatalf("AverageInto: %v", dst)
	}
}

func TestClip(t *testing.T) {
	x := []float32{-5, 0.5, 7}
	Clip(x, 1)
	if x[0] != -1 || x[1] != 0.5 || x[2] != 1 {
		t.Fatalf("Clip: %v", x)
	}
	// Non-positive bound is a no-op.
	y := []float32{-5, 7}
	Clip(y, 0)
	if y[0] != -5 || y[1] != 7 {
		t.Fatalf("Clip(0): %v", y)
	}
}

func TestMaxAbsDiffAndMean(t *testing.T) {
	if d := MaxAbsDiff([]float32{1, 2}, []float32{1.5, 1}); d != 1 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if m := Mean([]float32{2, 4, 6}); m != 4 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
}
