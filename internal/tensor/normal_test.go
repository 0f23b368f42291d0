package tensor

import (
	"math"
	"testing"
)

// sameRNG reports whether two generators are in the same state, bit for bit:
// both state words, the cached variate (stale or not) and its flag.
func sameRNG(a, b *RNG) bool {
	return a.s0 == b.s0 && a.s1 == b.s1 && a.hasGauss == b.hasGauss &&
		math.Float64bits(a.gauss) == math.Float64bits(b.gauss)
}

// TestNormFloat32sMatchesScalar checks NormFloat32s against the loop it
// replaces, value for value and then the generator's state, over seeds,
// lengths around the chunk size and starts with and without a cached
// variate.
func TestNormFloat32sMatchesScalar(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 7, normChunk - 1, normChunk, normChunk + 1, 73728}
	const seeds = 300
	scales := []float64{1, 0.31, math.Sqrt(2.0 / 27)}
	got := make([]float32, lengths[len(lengths)-1])
	want := make([]float32, len(got))
	for seed := 1; seed <= seeds; seed++ {
		scale := scales[seed%len(scales)]
		for _, n := range lengths {
			for _, cached := range []bool{false, true} {
				a, b := NewRNG(uint64(seed)), NewRNG(uint64(seed))
				if cached {
					a.NormFloat64()
					b.NormFloat64()
				}
				a.NormFloat32s(got[:n], scale)
				for i := range want[:n] {
					want[i] = float32(b.NormFloat64() * scale)
				}
				for i := range want[:n] {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("seed %d n %d cached %v: [%d] = %v, want %v", seed, n, cached, i, got[i], want[i])
					}
				}
				if !sameRNG(a, b) {
					t.Fatalf("seed %d n %d cached %v: state %+v, want %+v", seed, n, cached, *a, *b)
				}
				// The next draws agree too.
				if x, y := a.NormFloat64(), b.NormFloat64(); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("seed %d n %d cached %v: next draw %v, want %v", seed, n, cached, x, y)
				}
			}
		}
	}
}

// TestNormFactorsMatchMathLog runs the polar factor kernel against the
// scalar expression on adversarial radii: every power of two a radius can
// be, 1 − ulp, mantissas at and one ulp either side of √2/2's double (where
// the log's reduction turns), and random mantissas at random exponents.
func TestNormFactorsMatchMathLog(t *testing.T) {
	var s []float64
	for e := 0; e >= -1022; e-- {
		s = append(s, math.Ldexp(1, e))
	}
	s = append(s, math.Nextafter(1, 0), math.Ldexp(1, -104))
	h := math.Sqrt2 / 2
	for _, f1 := range []float64{h, math.Nextafter(h, 0), math.Nextafter(h, 1)} {
		for e := 0; e >= -110; e-- {
			s = append(s, math.Ldexp(f1, e))
		}
	}
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		e := uint64(1023 - 1 - r.Intn(104)) // 2⁻¹⁰⁴ ≤ s < 1
		s = append(s, math.Float64frombits(e<<52|r.Uint64()>>12))
	}
	got := append([]float64(nil), s...)
	normFactors(got)
	for i, x := range s {
		want := math.Sqrt(-2 * math.Log(x) / x)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("s = %v (%#016x): factor %v (%#016x), want %v (%#016x)",
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// BenchmarkNormFloat32s times 73 728 draws (a 512-sample ResNet-32 test set's
// noise) through NormFloat32s and through the scalar loop it replaces.
func BenchmarkNormFloat32s(b *testing.B) {
	dst := make([]float32, 73728)
	b.Run("batched", func(b *testing.B) {
		r := NewRNG(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.NormFloat32s(dst, 1)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		r := NewRNG(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = float32(r.NormFloat64())
			}
		}
	})
}
