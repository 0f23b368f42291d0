//go:build amd64

package tensor

// Dispatch for the 2×2 max-pool kernels (pool_amd64.s). A block is 8 windows
// on AVX2 and 16 on AVX-512 — 16 or 32 input columns of two rows — and every
// output row ends in a partial block of 1..lanes windows, read and written
// under lane masks so that nothing beyond 2·ow columns of a row is touched.

// poolArgs is the kernels' argument block.
type poolArgs struct {
	in   *float32 // first input plane of the call
	out  *float32 // first output plane
	arg  *int32   // the out planes' argmax entries; nil: none are written
	base int      // flat index of in[0], what arg counts from

	planes, oh, ow int
	w, plane       int // input row and plane size, elements

	full int // whole blocks of an output row before its last one
	// The last block's lanes: the low and high half of the input columns and
	// the windows. AVX2 takes sign-bit lane masks, AVX-512 opmask bits.
	mLo, mHi, mOut *int32
	kLo, kHi, kOut uint64
}

//go:noescape
func maxPool2FwdAVX2(p *poolArgs)

//go:noescape
func maxPool2FwdZ(p *poolArgs)

// poolLanes[8-n:] is a mask with the first n of eight lanes set.
var poolLanes = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// maxPool2ASM runs the 2×2 kernel of the active ISA level on planes
// [lo, hi) — ZMM only where a row has more than eight windows, since a
// narrower row is one block at either width — and reports false with SIMD
// off. oh and ow must be positive.
func maxPool2ASM(y []float32, arg []int32, x []float32, lo, hi, h, w int) bool {
	if !elemActive() {
		return false
	}
	maxPool2Call(zActive() && w/2 > 8, y, arg, x, lo, hi, h, w)
	return true
}

func maxPool2Call(wide bool, y []float32, arg []int32, x []float32, lo, hi, h, w int) {
	oh, ow := h/2, w/2
	p := poolArgs{
		in: &x[lo*h*w], out: &y[lo*oh*ow], base: lo * h * w,
		planes: hi - lo, oh: oh, ow: ow, w: w, plane: h * w,
	}
	if arg != nil {
		p.arg = &arg[lo*oh*ow]
	}
	if wide {
		p.full = (ow - 1) / 16
		r := ow - 16*p.full
		p.kLo, p.kHi, p.kOut = 1<<min(2*r, 16)-1, 1<<max(2*r-16, 0)-1, 1<<r-1
		maxPool2FwdZ(&p)
		return
	}
	p.full = (ow - 1) / 8
	r := ow - 8*p.full
	p.mLo, p.mHi, p.mOut = &poolLanes[8-min(2*r, 8)], &poolLanes[8-max(2*r-8, 0)], &poolLanes[8-r]
	maxPool2FwdAVX2(&p)
}
