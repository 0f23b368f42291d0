package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Fast-kernel-mode property tests (DESIGN.md §14). Fast mode gives up
// bit-parity with the scalar oracle — FMA fuses the multiply/add rounding
// and GemmTB switches to preload association — so it is validated by
// forward-error bounds over the same shape table the deterministic
// bit-pin tests use, plus two exact pins: with FMA unavailable Fast mode
// must fall back to the deterministic kernels bit-for-bit, and Fast
// results must not depend on the worker count.

// fastBound is the forward-error bound between any two evaluation orders
// of one output element: 2(k+2)·eps·(Σ|alpha·a·b| + |beta·c|), the same
// analysis TestGemmTBReference uses for panel regrouping.
func fastBound(k int, mag float64) float64 {
	const eps = 1.0 / (1 << 24)
	return 2 * float64(k+2) * eps * mag
}

func checkFastVsRef(t *testing.T, name string, tc gemmCase, got, want, magAB []float32, c0 []float32) {
	t.Helper()
	for i := 0; i < tc.m; i++ {
		for j := 0; j < tc.n; j++ {
			x := i*tc.n + j
			mag := float64(magAB[x]) + math.Abs(float64(tc.beta)*float64(c0[x]))
			bound := fastBound(tc.k, mag)
			d := math.Abs(float64(got[x]) - float64(want[x]))
			if d > bound {
				t.Fatalf("%s %dx%dx%d alpha=%v beta=%v element (%d,%d): |%v-%v| = %g exceeds bound %g",
					name, tc.m, tc.k, tc.n, tc.alpha, tc.beta, i, j, got[x], want[x], d, bound)
			}
		}
	}
}

// magProducts accumulates Σ|alpha·a·b| per output element for the bound.
func magProducts(tc gemmCase, a, b []float32, ta, tb bool) []float32 {
	mag := make([]float32, tc.m*tc.n)
	for i := 0; i < tc.m; i++ {
		for j := 0; j < tc.n; j++ {
			var s float64
			for p := 0; p < tc.k; p++ {
				av := a[i*tc.k+p]
				if ta {
					av = a[p*tc.m+i]
				}
				bv := b[p*tc.n+j]
				if tb {
					bv = b[j*tc.k+p]
				}
				s += math.Abs(float64(tc.alpha) * float64(av) * float64(bv))
			}
			mag[i*tc.n+j] = float32(s)
		}
	}
	return mag
}

func TestGemmFastErrorBound(t *testing.T) {
	r := NewRNG(211)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.m*tc.k)
		b := randSlice(r, tc.k*tc.n)
		c0 := randSlice(r, tc.m*tc.n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		GemmMode(Fast, tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, got)
		gemmRef(tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, want)
		checkFastVsRef(t, "GemmMode(Fast)", tc, got, want, magProducts(tc, a, b, false, false), c0)
	}
}

func TestGemmTAFastErrorBound(t *testing.T) {
	r := NewRNG(223)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.k*tc.m) // stored k×m
		b := randSlice(r, tc.k*tc.n)
		c0 := randSlice(r, tc.m*tc.n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		GemmTAMode(Fast, tc.alpha, a, tc.k, tc.m, b, tc.n, tc.beta, got)
		gemmTARef(tc.alpha, a, tc.k, tc.m, b, tc.n, tc.beta, want)
		checkFastVsRef(t, "GemmTAMode(Fast)", tc, got, want, magProducts(tc, a, b, true, false), c0)
	}
}

func TestGemmTBFastErrorBound(t *testing.T) {
	r := NewRNG(227)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.m*tc.k)
		b := randSlice(r, tc.n*tc.k) // stored n×k
		c0 := randSlice(r, tc.m*tc.n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		GemmTBMode(Fast, tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, got)
		gemmTBRef(tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, want)
		checkFastVsRef(t, "GemmTBMode(Fast)", tc, got, want, magProducts(tc, a, b, false, true), c0)
	}
}

// TestGemmFastFallbackBitIdentical pins the CROSSBOW_NOFMA / non-FMA-CPU
// behaviour: with the FMA kernels off, Fast mode must route through the
// deterministic driver and match it bit-for-bit.
func TestGemmFastFallbackBitIdentical(t *testing.T) {
	prev := setGemmFMA(false)
	defer setGemmFMA(prev)
	if fmaActive() {
		t.Fatal("setGemmFMA(false) did not disable the FMA path")
	}
	r := NewRNG(229)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.m*tc.k)
		b := randSlice(r, tc.k*tc.n)
		c0 := randSlice(r, tc.m*tc.n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		GemmMode(Fast, tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, got)
		Gemm(tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, want)
		bitsEqual(t, "GemmMode(Fast) fallback", got, want)
	}
}

// TestGemmFastZWidthInvariant: on AVX-512 machines the 8×16 ZMM kernel is
// dispatched over the 8×8 YMM one, but both run the identical per-element
// FMA chain — results must match bit-for-bit with the wide kernel forced
// off (the CROSSBOW_NOAVX512 behaviour). On narrower CPUs both runs take
// the 8×8 path and the test is a tautology, which is fine.
func TestGemmFastZWidthInvariant(t *testing.T) {
	if !fmaActive() {
		t.Skip("FMA kernels unavailable")
	}
	r := NewRNG(257)
	for _, tc := range gemmCases() {
		a := randSlice(r, tc.m*tc.k)
		b := randSlice(r, tc.k*tc.n)
		c0 := randSlice(r, tc.m*tc.n)
		wide := append([]float32(nil), c0...)
		GemmMode(Fast, tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, wide)
		prev := setGemmZ(false)
		narrow := append([]float32(nil), c0...)
		GemmMode(Fast, tc.alpha, a, tc.m, tc.k, b, tc.n, tc.beta, narrow)
		setGemmZ(prev)
		bitsEqual(t, "GemmMode(Fast) ZMM width", wide, narrow)
	}
}

// TestGemmFastParallelDeterministic: fast-mode results are bit-stable
// across worker counts (per-element accumulation order never depends on
// the band split), even though they differ from the scalar oracle.
func TestGemmFastParallelDeterministic(t *testing.T) {
	r := NewRNG(233)
	m, k, n := 67, 130, 259
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	c0 := randSlice(r, m*n)

	prev := Parallelism()
	defer SetParallelism(prev)

	var want []float32
	for _, workers := range []int{1, 2, 4, 13} {
		SetParallelism(workers)
		got := append([]float32(nil), c0...)
		GemmMode(Fast, 1.1, a, m, k, b, n, 0.9, got)
		if want == nil {
			want = got
			continue
		}
		bitsEqual(t, "GemmMode(Fast) parallel", got, want)
	}
}

// epiRef applies the epilogue sequence elementwise the way the unfused
// layer chain would: bias add, then eval-mode BN, then ReLU.
func epiRef(epi *Epilogue, c []float32, m, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			idx := i
			if epi.PerColumn {
				idx = j
			}
			v := c[i*n+j]
			if epi.Bias != nil {
				v += epi.Bias[idx]
			}
			if epi.Gamma != nil {
				v = epi.Gamma[idx]*((v-epi.Mean[idx])*epi.InvStd[idx]) + epi.Beta[idx]
			}
			if epi.ReLU && !(v > 0) {
				v = 0
			}
			c[i*n+j] = v
		}
	}
}

// TestGemmEpilogueBitIdentical: a fused epilogue must be a pure memory
// optimisation — bit-identical to running the GEMM then the elementwise
// chain as separate passes, in both kernel modes, for row- and
// column-indexed epilogues, across shapes that exercise the direct,
// packed and multi-slab paths.
func TestGemmEpilogueBitIdentical(t *testing.T) {
	r := NewRNG(239)
	shapes := [][3]int{{1, 1, 1}, {5, 7, 9}, {8, 72, 64}, {16, 144, 256}, {33, 260, 550}}
	for _, mode := range []KernelMode{Deterministic, Fast} {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := randSlice(r, m*k)
			b := randSlice(r, k*n)
			c0 := randSlice(r, m*n)
			for _, perCol := range []bool{false, true} {
				vecLen := m
				if perCol {
					vecLen = n
				}
				epi := &Epilogue{
					Bias:      randSlice(r, vecLen),
					Gamma:     randSlice(r, vecLen),
					Beta:      randSlice(r, vecLen),
					Mean:      randSlice(r, vecLen),
					InvStd:    randSlice(r, vecLen),
					ReLU:      true,
					PerColumn: perCol,
				}
				fused := append([]float32(nil), c0...)
				GemmEpi(mode, 1, a, m, k, b, n, 0, fused, epi)
				unfused := append([]float32(nil), c0...)
				GemmMode(mode, 1, a, m, k, b, n, 0, unfused)
				epiRef(epi, unfused, m, n)
				bitsEqual(t, "GemmEpi "+mode.String(), fused, unfused)
			}
		}
	}
}

// TestEpilogueRowOracle pins the per-row epilogue's SIMD body to the scalar
// chain for every combination of its three stages, row lengths around the
// vector width, and inputs dense in NaN, ±Inf, −0 and denormals (ReLU must
// send NaN and −0 to +0), with the assembly and with the scalar loop.
func TestEpilogueRowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	run := func() {
		for n := 1; n <= 41; n += 5 {
			for stages := 0; stages < 8; stages++ {
				const m = 3
				epi := &Epilogue{ReLU: stages&4 != 0}
				if stages&1 != 0 {
					epi.Bias = smaFill(r, m, 0)
				}
				if stages&2 != 0 {
					epi.Gamma, epi.Beta = smaFill(r, m, 0), smaFill(r, m, 0)
					epi.Mean, epi.InvStd = smaFill(r, m, 0), smaFill(r, m, 0)
				}
				got := smaFill(r, m*n, n%2)
				want := append([]float32(nil), got...)
				ApplyEpilogue(epi, got, m, n)
				epiRef(epi, want, m, n)
				smaBitsEqual(t, fmt.Sprintf("epilogue n=%d stages=%03b", n, stages), got, want)
			}
		}
	}
	run()
	defer setGemmASM(setGemmASM(false))
	run()
}

// TestGemmTBEpilogueBitIdentical covers the dense-layer shape (GemmTB with
// a per-column bias+ReLU epilogue).
func TestGemmTBEpilogueBitIdentical(t *testing.T) {
	r := NewRNG(241)
	for _, mode := range []KernelMode{Deterministic, Fast} {
		m, k, n := 32, 144, 10
		a := randSlice(r, m*k)
		b := randSlice(r, n*k)
		c0 := randSlice(r, m*n)
		epi := &Epilogue{Bias: randSlice(r, n), ReLU: true, PerColumn: true}
		fused := append([]float32(nil), c0...)
		GemmTBEpi(mode, 1, a, m, k, b, n, 0, fused, epi)
		unfused := append([]float32(nil), c0...)
		GemmTBMode(mode, 1, a, m, k, b, n, 0, unfused)
		epiRef(epi, unfused, m, n)
		bitsEqual(t, "GemmTBEpi "+mode.String(), fused, unfused)
	}
}

// int8 kernels: integer accumulation is exact, so the blocked kernels must
// match a naive triple loop exactly.
func TestGemmInt8MatchesNaive(t *testing.T) {
	r := NewRNG(251)
	for _, s := range [][3]int{{1, 1, 1}, {3, 7, 5}, {8, 72, 33}, {16, 144, 64}, {31, 260, 17}} {
		m, k, n := s[0], s[1], s[2]
		a := make([]int8, m*k)
		b := make([]int8, k*n)
		for i := range a {
			a[i] = int8(r.Intn(255) - 127)
		}
		for i := range b {
			b[i] = int8(r.Intn(255) - 127)
		}
		got := make([]int32, m*n)
		GemmInt8(a, m, k, b, n, got)
		bt := make([]int8, n*k) // also exercise the TB layout
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		gotTB := make([]int32, m*n)
		GemmInt8TB(a, m, k, bt, n, gotTB)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want int32
				for p := 0; p < k; p++ {
					want += int32(a[i*k+p]) * int32(b[p*n+j])
				}
				if got[i*n+j] != want {
					t.Fatalf("GemmInt8 %v element (%d,%d): got %d want %d", s, i, j, got[i*n+j], want)
				}
				if gotTB[i*n+j] != want {
					t.Fatalf("GemmInt8TB %v element (%d,%d): got %d want %d", s, i, j, gotTB[i*n+j], want)
				}
			}
		}
	}
}

func TestQuantizeSym(t *testing.T) {
	src := []float32{0, 1, -2, 4, -4}
	dst := make([]int8, len(src))
	scale := QuantizeSym(src, dst)
	if scale != 4.0/127 {
		t.Fatalf("scale = %v, want %v", scale, 4.0/127)
	}
	for i, v := range src {
		back := float32(dst[i]) * scale
		if d := math.Abs(float64(back - v)); d > float64(scale)/2+1e-7 {
			t.Fatalf("element %d: %v dequantizes to %v (err %g > scale/2)", i, v, back, d)
		}
	}
	zeros := make([]float32, 4)
	if s := QuantizeSym(zeros, dst); s != 1 {
		t.Fatalf("all-zero scale = %v, want 1", s)
	}
}
