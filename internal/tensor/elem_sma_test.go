package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Oracles for the optimiser kernels: the scalar loops as internal/core ran
// them before the kernels existed (correction pass, then local step, as two
// traversals; the fold with its delta read from memory), with the velocity
// snap stated as a comparison rather than as snapVel's bit arithmetic.

// refSnap is +0 for a zero or a subnormal and v for everything else (a NaN
// fails both comparisons and is returned).
func refSnap(v float32) float32 {
	if v > -0x1p-126 && v < 0x1p-126 {
		return 0
	}
	return v
}

func refSMACorrect(w, z, delta []float32, alpha float32) {
	for i := range w {
		c := alpha * (w[i] - z[i])
		delta[i] += c
		w[i] -= c
	}
}

func refSMALocalStep(w, g, v []float32, lr, mu float32) {
	for i := range w {
		v[i] = refSnap(mu*v[i] - lr*g[i])
		w[i] += v[i]
	}
}

func refSMAContributeStep(w, g, v, z, out []float32, alpha, lr, mu float32) {
	for i := range w {
		wi := w[i]
		c := alpha * (wi - z[i])
		out[i] = c
		wi -= c
		v[i] = refSnap(mu*v[i] - lr*g[i])
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

// TestSMAKernelsSnapSubnormalVelocity walks the velocity update of all three
// velocity kernels across the snap's boundary: results that are zeros of
// either sign, subnormals up to the largest one, ±2⁻¹²⁶ itself, NaN and
// ±Inf, in every lane position of the AVX2 body and of the scalar tail. A
// result below 2⁻¹²⁶ must be stored as +0 (all bits clear) and reach w as
// +0; every other lane must hold the bits of the unsnapped expression
// µ·v − γ·g; and the SIMD run must equal the scalar one.
func TestSMAKernelsSnapSubnormalVelocity(t *testing.T) {
	const lr, mu, alpha = float32(0.25), float32(0.5), float32(0.5)
	// With g = 0 and µ = ½ the new velocity is exactly half the old one, and
	// twice every target below is representable: v = 2·target lands on it.
	targets := []uint32{
		0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x00000100, 0x80400000,
		0x007fffff, 0x807fffff, // the largest subnormals
		0x00800000, 0x80800000, 0x00800001, 0x3f800000, 0xbf800000, // normal: kept
		0x7f800000, 0xff800000, 0x7fc00000, // ±Inf, NaN: kept
	}
	const n = 8*6 + 7
	kernels := []struct {
		name string
		run  func(w, g, v, z, d []float32)
	}{
		{"SMALocalStep", func(w, g, v, z, d []float32) { SMALocalStep(w, g, v, lr, mu) }},
		{"SMACorrectStep", func(w, g, v, z, d []float32) { SMACorrectStep(w, g, v, z, d, alpha, lr, mu) }},
		{"SMAContributeStep", func(w, g, v, z, d []float32) { SMAContributeStep(w, g, v, z, d, alpha, lr, mu) }},
	}
	for _, k := range kernels {
		for shift := 0; shift < len(targets); shift++ {
			w, g, v, z, d := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
			want := make([]uint32, n)
			for i := range v {
				target := math.Float32frombits(targets[(i+shift)%len(targets)])
				v[i] = 2 * target
				w[i], z[i] = 3, 3 // no correction: c = α(w − z) = 0
				old := mu*v[i] - lr*g[i]
				want[i] = math.Float32bits(old)
				if old > -0x1p-126 && old < 0x1p-126 {
					want[i] = 0
				}
			}
			sv, sw := append([]float32(nil), v...), append([]float32(nil), w...)
			k.run(w, g, v, z, d)
			func() {
				defer setGemmASM(setGemmASM(false))
				k.run(sw, g, sv, z, make([]float32, n))
			}()
			for i := range v {
				got := math.Float32bits(v[i])
				if got != want[i] && !(v[i] != v[i] && want[i] == 0x7fc00000) {
					t.Fatalf("%s shift %d: v[%d] = %08x, want %08x", k.name, shift, i, got, want[i])
				}
				if sb := math.Float32bits(sv[i]); sb != got && v[i] == v[i] {
					t.Fatalf("%s shift %d: v[%d] = %08x with SIMD, %08x scalar", k.name, shift, i, got, sb)
				}
				if want[i] == 0 && math.Float32bits(w[i]) != math.Float32bits(3) {
					t.Fatalf("%s shift %d: w[%d] = %v after a snapped velocity, want 3", k.name, shift, i, w[i])
				}
				if math.Float32bits(w[i]) != math.Float32bits(sw[i]) && w[i] == w[i] {
					t.Fatalf("%s shift %d: w[%d] = %v with SIMD, %v scalar", k.name, shift, i, w[i], sw[i])
				}
			}
		}
	}
}
