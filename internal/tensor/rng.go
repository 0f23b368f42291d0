package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64
// seeded xorshift128+). Every stochastic choice in the repository — dataset
// synthesis, weight initialisation, shuffling, dropout — draws from an RNG
// constructed with an explicit seed so experiments replay bit-for-bit.
type RNG struct {
	s0, s1 uint64
	// cached second variate of the last polar pair
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	// SplitMix64 expansion of the seed into two non-zero state words.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r := &RNG{s0: next(), s1: next()}
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next 64 random bits (xorshift128+).
func (r *RNG) Uint64() uint64 {
	var x uint64
	r.s0, r.s1, x = xorshift(r.s0, r.s1)
	return x
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate by Marsaglia's polar
// method: draw (u, v) uniform on the square until s = u²+v² lies in (0, 1),
// then u·f and v·f with f = √(−2·ln s / s) are two independent normals. The
// second is cached for the next call.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Perm fills out with a random permutation of [0, len(out)) using the
// Fisher-Yates shuffle.
func (r *RNG) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Split derives an independent generator from r. Sequential Split calls
// yield distinct streams, so one master seed can fan out to per-worker RNGs.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// normChunk is how many variates NormFloat32s draws per pass: half as many
// polar pairs, whose coordinates and factors live on the stack.
const normChunk = 512

// NormFloat32s fills dst with standard normal variates times scale. It
// writes exactly what the loop
//
//	for i := range dst { dst[i] = float32(r.NormFloat64() * scale) }
//
// writes, and leaves r in exactly that loop's state — both state words, the
// cached variate and its flag (TestNormFloat32sMatchesScalar) — but in three
// phases a chunk at a time. A branch-free loop draws the polar pairs in
// stream order, storing every candidate and advancing past it only if it is
// accepted; normFactors computes the pairs' √(−2·ln s / s), four at a time
// with SIMD; a last loop scales and narrows u·f and v·f in the scalar
// association.
func (r *RNG) NormFloat32s(dst []float32, scale float64) {
	if len(dst) == 0 {
		return
	}
	if r.hasGauss {
		r.hasGauss = false
		dst[0] = float32(r.gauss * scale)
		dst = dst[1:]
	}
	const half = normChunk / 2
	var u, v, f [half]float64
	s0, s1 := r.s0, r.s1
	for len(dst) > 0 {
		pairs := min((len(dst)+1)/2, half)
		for n := 0; n < pairs; {
			var a, b uint64
			s0, s1, a = xorshift(s0, s1)
			s0, s1, b = xorshift(s0, s1)
			// 2·Float64() − 1, exactly: m·2⁻⁵² and its difference with 1
			// are both representable for every 53-bit m.
			uu := float64(int64(a>>11))*0x1p-52 - 1
			vv := float64(int64(b>>11))*0x1p-52 - 1
			ss := uu*uu + vv*vv
			// 0 < s < 1 on the bits of a non-negative s: t = bits − 1
			// lies in [0, bits(1) − 1).
			t := int64(math.Float64bits(ss)) - 1
			i := n & (half - 1) // n < half: the mask only drops the bounds checks
			u[i], v[i], f[i] = uu, vv, ss
			n += int(uint64((t-(0x3FF0000000000000-1))&^t) >> 63)
		}
		normFactors(f[:pairs])
		m := min(len(dst), 2*pairs)
		ff := f[:m/2]
		us, vs, out := u[:len(ff)], v[:len(ff)], dst[:2*len(ff)]
		for i, fi := range ff {
			out[2*i] = float32(us[i] * fi * scale)
			out[2*i+1] = float32(vs[i] * fi * scale)
		}
		last := pairs - 1
		r.gauss = v[last] * f[last]
		if m%2 == 1 {
			dst[m-1] = float32(u[last] * f[last] * scale)
			r.hasGauss = true
		}
		dst = dst[m:]
	}
	r.s0, r.s1 = s0, s1
}

// xorshift is one xorshift128+ step: the next state words and the output.
func xorshift(x, y uint64) (s0, s1, out uint64) {
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	return y, x, x + y
}

// normFactors replaces each s, a positive normal float64, with the polar
// method's factor √(−2·ln s / s), bit for bit as NormFloat64 computes it.
// The SIMD kernel replays math.Log's amd64 sequence; the rest, and
// everything with SIMD off, is that expression itself.
func normFactors(s []float64) {
	for i := normFactorsASM(s); i < len(s); i++ {
		s[i] = math.Sqrt(-2 * math.Log(s[i]) / s[i])
	}
}
