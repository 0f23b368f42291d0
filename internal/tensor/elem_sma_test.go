package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Oracles for the optimiser kernels: the scalar loops as internal/core ran
// them before the kernels existed, copied verbatim (correction pass, then
// local step, as two traversals; the fold with its delta read from memory).

func refSMACorrect(w, z, delta []float32, alpha float32) {
	for i := range w {
		c := alpha * (w[i] - z[i])
		delta[i] += c
		w[i] -= c
	}
}

func refSMALocalStep(w, g, v []float32, lr, mu float32) {
	for i := range w {
		v[i] = mu*v[i] - lr*g[i]
		w[i] += v[i]
	}
}

func refSMAContributeStep(w, g, v, z, out []float32, alpha, lr, mu float32) {
	for i := range w {
		wi := w[i]
		c := alpha * (wi - z[i])
		out[i] = c
		wi -= c
		v[i] = mu*v[i] - lr*g[i]
		w[i] = wi + v[i]
	}
}

func refSMAFold(z, zPrev, delta []float32, mu float32) {
	for i := range z {
		zOld := z[i]
		z[i] = zOld + delta[i] + mu*(zOld-zPrev[i])
		zPrev[i] = zOld
	}
}

func refSMADistFold(ref, zv, zp, sum []float32, alphaG, n, mu float32) {
	for i := range zv {
		zOld := zv[i]
		ref[i] -= alphaG * (ref[i] - zOld)
		zv[i] = zOld + alphaG*(sum[i]-n*zOld) + mu*(zOld-zp[i])
		zp[i] = zOld
	}
}

// smaFill is elemFill plus denormals and values whose products underflow
// into the denormal range — the corner a flush-to-zero kernel would fail.
func smaFill(r *rand.Rand, n, off int) []float32 {
	s := make([]float32, n+off)[off:]
	for i := range s {
		switch r.Intn(8) {
		case 0:
			s[i] = elemEdgeValues[r.Intn(len(elemEdgeValues))]
		case 1:
			s[i] = math.Float32frombits(uint32(r.Intn(1<<23))) * float32(1-2*r.Intn(2))
		case 2:
			s[i] = float32(r.NormFloat64()) * 1e-37
		default:
			s[i] = float32(r.NormFloat64())
		}
	}
	return s
}

// smaBitsEqual demands identical bit patterns, except that a NaN may carry
// any payload: x86 hands an operation on two different NaNs its first
// operand's payload and the compiler is free to commute an add, so that
// one bit pattern is not a property of the source expression.
func smaBitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
		if g != w && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: [%d] = %08x (%v), want %08x (%v)", name, i, g, got[i], w, want[i])
		}
	}
}

func cloneAll(vs ...[]float32) [][]float32 {
	out := make([][]float32, len(vs))
	for i, v := range vs {
		out[i] = append([]float32(nil), v...)
	}
	return out
}

func smaOracleLengths() []int {
	ns := []int{6218, 45210}
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return ns
}

func runSMAOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const alpha, lr, mu = float32(0.5), float32(0.05), float32(0.9)
	for _, n := range smaOracleLengths() {
		for _, off := range []int{0, 1, 3} {
			name := func(k string) string { return fmt.Sprintf("%s n=%d off=%d", k, n, off) }
			w, g, v, z, d := smaFill(r, n, off), smaFill(r, n, off+1), smaFill(r, n, off), smaFill(r, n, off+2), smaFill(r, n, off)

			// Correction accumulated, then the local step: two traversals
			// in the oracle, one in the kernel.
			a, b := cloneAll(w, g, v, z, d), cloneAll(w, g, v, z, d)
			SMACorrectStep(a[0], a[1], a[2], a[3], a[4], alpha, lr, mu)
			refSMACorrect(b[0], b[3], b[4], alpha)
			refSMALocalStep(b[0], b[1], b[2], lr, mu)
			for i, vec := range []string{"w", "g", "v", "z", "delta"} {
				smaBitsEqual(t, name("SMACorrectStep/"+vec), a[i], b[i])
			}

			a, b = cloneAll(w, g, v, z, d), cloneAll(w, g, v, z, d)
			SMAContributeStep(a[0], a[1], a[2], a[3], a[4], alpha, lr, mu)
			refSMAContributeStep(b[0], b[1], b[2], b[3], b[4], alpha, lr, mu)
			for i, vec := range []string{"w", "g", "v", "z", "out"} {
				smaBitsEqual(t, name("SMAContributeStep/"+vec), a[i], b[i])
			}

			a, b = cloneAll(w, g, v), cloneAll(w, g, v)
			SMALocalStep(a[0], a[1], a[2], lr, mu)
			refSMALocalStep(b[0], b[1], b[2], lr, mu)
			for i, vec := range []string{"w", "g", "v"} {
				smaBitsEqual(t, name("SMALocalStep/"+vec), a[i], b[i])
			}

			a, b = cloneAll(z, w, d), cloneAll(z, w, d)
			SMAFold(a[0], a[1], a[2], mu)
			refSMAFold(b[0], b[1], b[2], mu)
			for i, vec := range []string{"z", "zPrev", "delta"} {
				smaBitsEqual(t, name("SMAFold/"+vec), a[i], b[i])
			}

			a, b = cloneAll(w, z, v, g), cloneAll(w, z, v, g)
			SMADistFold(a[0], a[1], a[2], a[3], alpha, 3, mu)
			refSMADistFold(b[0], b[1], b[2], b[3], alpha, 3, mu)
			for i, vec := range []string{"ref", "z", "zPrev", "sum"} {
				smaBitsEqual(t, name("SMADistFold/"+vec), a[i], b[i])
			}
		}
	}
}

// TestSMAKernelOracle pins every optimiser kernel to its scalar oracle bit
// for bit: lengths through the all-tail, vector-only and vector+tail
// regimes plus the two model sizes the benchmark trains, slices starting
// off 32-byte alignment, and inputs dense in NaN, ±Inf, -0 and denormals.
func TestSMAKernelOracle(t *testing.T) { runSMAOracle(t) }

// TestSMAKernelOracleScalarFallback re-runs the oracle on the pure-Go
// path (what CROSSBOW_NOSIMD=1 and non-amd64 builds execute).
func TestSMAKernelOracleScalarFallback(t *testing.T) {
	defer setGemmASM(setGemmASM(false))
	runSMAOracle(t)
}

// TestSMAKernelsKeepDenormals feeds a product that is exact only as a
// denormal: a kernel running with flush-to-zero would return 0.
func TestSMAKernelsKeepDenormals(t *testing.T) {
	const n = 16
	w, g, v := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range v {
		v[i] = 4 * math.SmallestNonzeroFloat32
	}
	SMALocalStep(w, g, v, 0.1, 0.5)
	for i := range v {
		if v[i] != 2*math.SmallestNonzeroFloat32 || w[i] != v[i] {
			t.Fatalf("[%d]: v=%g w=%g, want the denormal %g", i, v[i], w[i], 2*math.SmallestNonzeroFloat32)
		}
	}
}
