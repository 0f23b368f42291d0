package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

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
// chain as separate passes, for row- and column-indexed epilogues, across
// shapes that exercise the direct, packed and multi-slab paths.
func TestGemmEpilogueBitIdentical(t *testing.T) {
	r := NewRNG(239)
	shapes := [][3]int{{1, 1, 1}, {5, 7, 9}, {8, 72, 64}, {16, 144, 256}, {33, 260, 550}}
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
			GemmEpi(1, a, m, k, b, n, 0, fused, epi)
			unfused := append([]float32(nil), c0...)
			Gemm(1, a, m, k, b, n, 0, unfused)
			epiRef(epi, unfused, m, n)
			bitsEqual(t, "GemmEpi", fused, unfused)
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
				applyEpi(epi, got, n, 0, m, 0, n)
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
	m, k, n := 32, 144, 10
	a := randSlice(r, m*k)
	b := randSlice(r, n*k)
	c0 := randSlice(r, m*n)
	epi := &Epilogue{Bias: randSlice(r, n), ReLU: true, PerColumn: true}
	fused := append([]float32(nil), c0...)
	GemmTBEpi(1, a, m, k, b, n, 0, fused, epi)
	unfused := append([]float32(nil), c0...)
	GemmTB(1, a, m, k, b, n, 0, unfused)
	epiRef(epi, unfused, m, n)
	bitsEqual(t, "GemmTBEpi", fused, unfused)
}
