package tensor

import "math"

// Optimiser kernels: the flat-vector arithmetic of synchronous model
// averaging (Alg 1 lines 8-13) as exact elementwise loops. §4.4 keeps every
// replica's weights and gradients contiguous so that corrections, momentum
// and averaging are streaming passes; these are those passes, one fused
// loop per role, on elem.go's conventions (AVX2 covers len&^7, the Go loop
// below finishes the tail and is the whole kernel when SIMD is off).
//
// Every kernel is bit-identical to its scalar loop for all inputs
// (including ±Inf, -0 and subnormals; NaN lanes stay NaN): the vector code
// performs the same IEEE single-precision multiplies, adds and subtracts
// in the same association, never a fused multiply-add, and never touches
// MXCSR. The scalar loops are the definition; internal/core composes
// them into blocked walks over the model (DESIGN.md "optimiser kernels").
//
// The velocity is the one piece of state here that decays: with a zero
// gradient v ← µ·v shrinks until µ·v rounds back to v on the smallest
// subnormals, and there it stays — every later step multiplying a
// subnormal, which x86 hands to a microcode assist (~150 cycles a vector).
// So the velocity update is defined as v ← µ·v − γ·g followed by snapVel:
// a result below the smallest normal, 2⁻¹²⁶, is stored as +0. The three
// kernels that own a velocity (SMACorrectStep, SMAContributeStep,
// SMALocalStep) all do it, scalar loop, AVX2 body and tail alike; SMAFold
// and SMADistFold carry no decaying state and have nothing to snap. A
// parameter cannot see it: w takes v only through one addition, and adding
// anything below 2⁻¹²⁶ to a float32 of magnitude ≥ 2⁻¹⁰¹ returns that
// float32 unchanged — less than half its last place — while the velocity
// itself rejoins the unsnapped one bit for bit at the first step whose
// γ·g is a normal number of that size (DESIGN.md §17;
// core.TestSnapInvisibleToParameters pins a 3 000-step run to the
// unsnapped definition's parameters).
//
// All slices of one call must have equal length and must not overlap.

// snapVel returns v, or +0 where |v| < 2⁻¹²⁶ (a zero of either sign or a
// subnormal). Integer arithmetic on the bit pattern, so it is branch-free
// and leaves NaN and ±Inf alone: the magnitude bits minus 0x00800000 are
// negative as an int32 exactly below the smallest normal.
func snapVel(v float32) float32 {
	b := math.Float32bits(v)
	below := uint32(int32(b&0x7fffffff-0x00800000) >> 31)
	return math.Float32frombits(b &^ below)
}

func sameLen(name string, n int, lens ...int) {
	for _, l := range lens {
		if l != n {
			panic("tensor: " + name + " length mismatch")
		}
	}
}

// SMACorrectStep is one replica's τ-boundary update with the correction
// accumulated for the fold: c = α(w−z); delta += c;
// v = snapVel(µ·v − γ·g); w = (w−c) + v. Calling it once per replica on a zeroed delta leaves
// delta = ((0+c_0)+c_1)+…, the replica-order sum SMAFold consumes.
func SMACorrectStep(w, g, v, z, delta []float32, alpha, lr, mu float32) {
	sameLen("SMACorrectStep", len(w), len(g), len(v), len(z), len(delta))
	for i := smaCorrectStepASM(w, g, v, z, delta, alpha, lr, mu, true); i < len(w); i++ {
		c := alpha * (w[i] - z[i])
		delta[i] += c
		v[i] = snapVel(mu*v[i] - lr*g[i])
		w[i] = (w[i] - c) + v[i]
	}
}

// SMAContributeStep is SMACorrectStep with the correction stored instead
// of accumulated (out = c): the barrier-free runtime keeps one correction
// vector per learner and sums them later, in learner order.
func SMAContributeStep(w, g, v, z, out []float32, alpha, lr, mu float32) {
	sameLen("SMAContributeStep", len(w), len(g), len(v), len(z), len(out))
	for i := smaCorrectStepASM(w, g, v, z, out, alpha, lr, mu, false); i < len(w); i++ {
		c := alpha * (w[i] - z[i])
		out[i] = c
		v[i] = snapVel(mu*v[i] - lr*g[i])
		w[i] = (w[i] - c) + v[i]
	}
}

// SMALocalStep is a gradient step with local momentum:
// v = snapVel(µ·v − γ·g); w += v.
func SMALocalStep(w, g, v []float32, lr, mu float32) {
	sameLen("SMALocalStep", len(w), len(g), len(v))
	for i := smaLocalStepASM(w, g, v, lr, mu); i < len(w); i++ {
		v[i] = snapVel(mu*v[i] - lr*g[i])
		w[i] += v[i]
	}
}

// SMAFold moves the average model along the summed corrections with
// Polyak momentum: z = (z + delta) + µ(z − zPrev); zPrev = the old z.
func SMAFold(z, zPrev, delta []float32, mu float32) {
	sameLen("SMAFold", len(z), len(zPrev), len(delta))
	for i := smaFoldASM(z, zPrev, delta, mu); i < len(z); i++ {
		zOld := z[i]
		z[i] = zOld + delta[i] + mu*(zOld-zPrev[i])
		zPrev[i] = zOld
	}
}

// SMADistFold is the inter-server fold factored through an all-reduced
// sum over parts servers: ref −= α(ref − z);
// z = (z + α(sum − parts·z)) + µ(z − zPrev); zPrev = the old z.
func SMADistFold(ref, z, zPrev, sum []float32, alpha, parts, mu float32) {
	sameLen("SMADistFold", len(z), len(ref), len(zPrev), len(sum))
	for i := smaDistFoldASM(ref, z, zPrev, sum, alpha, parts, mu); i < len(z); i++ {
		zOld := z[i]
		ref[i] -= alpha * (ref[i] - zOld)
		z[i] = zOld + alpha*(sum[i]-parts*zOld) + mu*(zOld-zPrev[i])
		zPrev[i] = zOld
	}
}
