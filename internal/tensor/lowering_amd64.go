//go:build amd64

package tensor

// Plane-shift kernels for same-grid conv lowering and, on AVX-512, gather
// kernels for every other geometry (lowering.go has the tables). Tap 0 of a
// padded geometry reads from before the plane, so the shifted addresses are
// formed inside the assembly, where they are never materialised as Go
// pointers; a masked-out lane — VMASKMOVPS's or an opmask's — does not touch
// memory.
//
// The AVX2 kernels handle one sample a call: x/dx point at the sample's
// first input plane, col at row 0 of the sample's column block; sc (the
// stride between the sample's channel planes) and ld are in elements.

//go:noescape
func im2colShiftAVX2(x, col *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int)

//go:noescape
func col2imShiftAVX2(col, dx *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int)

// zLower is the argument block of the AVX-512 kernels: one run of n
// positions in every channel row — column positions for im2col, input
// positions for col2im — that is contiguous on both sides. Strides are in
// bytes. The shift kernels read shift and mask ([block mod period][tap]);
// the gather kernels read idx (im2col [tap][block mod period][16], col2im
// [block mod period][tap][16]) and move the gathered side's base by step at
// every period.
type zLower struct {
	x, col    *float32 // the run's first position in plane 0 and in column row 0
	sc, ld    uintptr  // between channel planes, between column rows
	inC, taps int
	n         int
	shift     *int32
	mask      *uint16
	idx       *int32
	period    int
	step      uintptr
}

//go:noescape
func im2colShiftZ(p *zLower)

//go:noescape
func col2imShiftZ(p *zLower)

//go:noescape
func im2colGatherZ(p *zLower)

//go:noescape
func col2imGatherZ(p *zLower)

// zRun is how many samples of [lo, hi) one kernel call takes: all of them
// when a sample's planes follow each other directly in every channel row
// (sn == plane: the channel-major layout, or a single channel), one
// otherwise (the NCHW network input).
func (l *Lowering) zRun(lo, hi, sn int) int {
	if sn == l.plane {
		return hi - lo
	}
	return 1
}

// lowerZ lowers samples [lo, hi) into col with the AVX-512 kernels or —
// adjoint — gathers them back out of it: a kernel call per run, over the
// run's column positions or its input positions.
func (l *Lowering) lowerZ(adjoint bool, lo, hi int, x []float32, sn, sc int, col []float32, ld int) {
	z := &l.z
	mask, idx, period, step, per := z.fwd, z.fwdIdx, z.fwdPeriod, z.fwdStep, l.s
	if adjoint {
		mask, idx, period, step, per = z.adj, z.adjIdx, z.adjPeriod, z.adjStep, l.plane
	}
	p := zLower{
		sc: uintptr(sc) * 4, ld: uintptr(ld) * 4, inC: l.g.InC, taps: l.g.KH * l.g.KW,
		period: period, step: uintptr(step) * 4,
	}
	if l.shift != nil {
		p.shift, p.mask = &l.shift[0], &mask[0]
	} else {
		p.idx = &idx[0]
	}
	run := l.zRun(lo, hi, sn)
	for n := lo; n < hi; n += run {
		p.x, p.col, p.n = &x[n*sn], &col[n*l.s], run*per
		switch {
		case l.shift != nil && !adjoint:
			im2colShiftZ(&p)
		case l.shift != nil:
			col2imShiftZ(&p)
		case !adjoint:
			im2colGatherZ(&p)
		default:
			col2imGatherZ(&p)
		}
	}
}

// gemmConvSamples is GemmConv over samples [lo, hi): one gemmTileZ call per
// run, W through its row strides, x in place.
func (l *Lowering) gemmConvSamples(lo, hi, batch int, w, x []float32, sn, sc int, y []float32, epi *Epilogue) {
	ns := batch * l.s
	t := zTile{
		a: &w[0], ars: uintptr(l.rows) * 4, acs: 4,
		ldb: uintptr(sc) * 4, kb: l.g.InC,
		ldc: uintptr(ns) * 4, m: l.g.OutC, mode: tileZero,
		taps: l.g.KH * l.g.KW, shift: &l.shift[0], mask: &l.z.fwd[0], period: l.z.fwdPeriod,
	}
	run := l.zRun(lo, hi, sn)
	for n := lo; n < hi; n += run {
		t.b, t.c, t.n = &x[n*sn], &y[n*l.s], run*l.s
		gemmTileZ(&t)
	}
	if epi != nil {
		applyEpi(epi, y, ns, 0, l.g.OutC, lo*l.s, hi*l.s)
	}
}
