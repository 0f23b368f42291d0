package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// elemEdgeValues seeds the random fills so every run exercises the IEEE
// corners the SIMD/scalar equivalence argument rests on.
var elemEdgeValues = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32,
}

func elemFill(r *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		if r.Intn(4) == 0 {
			s[i] = elemEdgeValues[r.Intn(len(elemEdgeValues))]
		} else {
			s[i] = float32(r.NormFloat64())
		}
	}
	return s
}

// scalar references, written independently of elem.go's tail loops.

func refAccumAdd(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func refReluFwd(dst, src []float32) {
	for i := range dst {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func refReluBwd(dst, dy, y []float32) {
	for i := range dst {
		if y[i] > 0 {
			dst[i] = dy[i]
		} else {
			dst[i] = 0
		}
	}
}

func refAddRelu(dst, a, b []float32) {
	for i := range dst {
		if v := a[i] + b[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// elemBitsEqual compares bit patterns so NaN payloads and zero signs count.
func elemBitsEqual(t *testing.T, name string, n int, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s n=%d: [%d] = %x (%v), want %x (%v)",
				name, n, i, math.Float32bits(got[i]), got[i],
				math.Float32bits(want[i]), want[i])
		}
	}
}

// TestElemOracle checks the SIMD elementwise kernels against independent
// scalar references, bit for bit, across lengths that cover the empty,
// all-tail, vector-only, and vector+tail regimes — including the NaN and
// signed-zero corners documented in elem.go.
func TestElemOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 0; n <= 40; n++ {
		src, dy, y := elemFill(r, n), elemFill(r, n), elemFill(r, n)

		dst := elemFill(r, n)
		want := append([]float32(nil), dst...)
		AccumAdd(dst, src)
		refAccumAdd(want, src)
		elemBitsEqual(t, "AccumAdd", n, dst, want)

		got, want2 := make([]float32, n), make([]float32, n)
		ReluFwd(got, src)
		refReluFwd(want2, src)
		elemBitsEqual(t, "ReluFwd", n, got, want2)

		ReluBwd(got, dy, y)
		refReluBwd(want2, dy, y)
		elemBitsEqual(t, "ReluBwd", n, got, want2)

		AddRelu(got, src, y)
		refAddRelu(want2, src, y)
		elemBitsEqual(t, "AddRelu", n, got, want2)

		Add(got, src, y)
		for i := range want2 {
			want2[i] = src[i] + y[i]
		}
		smaBitsEqual(t, "Add", got, want2) // a sum of two NaNs may keep either payload
	}
}

// TestElemInPlace pins the aliasing contract separately (ReluFwd with
// dst == src), since the main oracle loop overwrites its inputs.
func TestElemInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 7, 8, 9, 24, 33} {
		src := elemFill(r, n)
		want := make([]float32, n)
		refReluFwd(want, src)
		ReluFwd(src, src)
		elemBitsEqual(t, "ReluFwd/inplace", n, src, want)
	}
}

// TestElemScalarFallback forces the pure-Go path and re-runs the oracle,
// so the non-amd64 route is covered on this machine too.
func TestElemScalarFallback(t *testing.T) {
	prev := setGemmASM(false)
	defer setGemmASM(prev)
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 5, 16, 31} {
		src, y := elemFill(r, n), elemFill(r, n)
		got, want := make([]float32, n), make([]float32, n)
		ReluFwd(got, src)
		refReluFwd(want, src)
		elemBitsEqual(t, "ReluFwd/fallback", n, got, want)
		AddRelu(got, src, y)
		refAddRelu(want, src, y)
		elemBitsEqual(t, "AddRelu/fallback", n, got, want)
	}
}
