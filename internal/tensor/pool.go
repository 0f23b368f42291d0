package tensor

import "math"

// Max-pooling kernels: square k×k windows at stride k over a run of h×w
// planes, the only pooling the models use. x holds the planes back to back,
// y and arg one (h/k)×(w/k) plane each; rows and columns beyond the last
// whole window are not pooled.
//
// The rule, for every output: the first strict maximum of the window in
// (kh, kw) order. The window's first element starts as the best, a later
// one replaces it only if it compares greater (IEEE `>`), so a tie — +0
// against −0, equal values — keeps the earlier element, a NaN in first
// place stays (nothing compares greater than it) and a NaN anywhere else
// never wins. y gets the winner's bits, arg its flat index into x.
//
// The Go loops below are the definition, for any k, and they are written
// without a data-dependent branch: on fresh activations the comparison is a
// coin toss, and a scalar `if v > best` loop spends more time in
// mispredicts (~6 ns an element) than a whole GEMM of the same task takes.
// The compare becomes an all-ones or all-zeros word (gtMask) and the winner
// and its index are selected with it. For k = 2 the AVX2 and AVX-512
// kernels (pool_amd64.s) do the same compare-and-select on 8 or 16 windows
// a step; a select moves bits and the compare is the scalar one, so all
// three levels agree on every byte of y and arg (TestMaxPoolLevelsAgree,
// nn.TestMaxPoolMatchesReference).

// gtMask is all ones when a > b and zero otherwise (NaN compares false).
// The compiler turns the branch into a flag-to-register move.
func gtMask(a, b float32) uint32 {
	var m uint32
	if a > b {
		m = 1
	}
	return -m
}

// checkPool panics unless x holds planes [0, hi) of h×w and y and arg the
// same planes of the pooled size.
func checkPool(name string, yLen, argLen, xLen, lo, hi, h, w, k int) {
	if k < 1 || lo < 0 || lo > hi || xLen < hi*h*w {
		panic("tensor: " + name + " bad plane range")
	}
	if out := hi * (h / k) * (w / k); yLen < out || argLen < out {
		panic("tensor: " + name + " buffer too small")
	}
}

// MaxPoolFwd pools planes [lo, hi) of x into the same planes of y and
// writes each winner's flat index in x to arg. A nil arg is not written:
// a forward-only pass has no backward to read it.
func MaxPoolFwd(y []float32, arg []int32, x []float32, lo, hi, h, w, k int) {
	argLen := len(y)
	if arg != nil {
		argLen = len(arg)
	}
	checkPool("MaxPoolFwd", len(y), argLen, len(x), lo, hi, h, w, k)
	oh, ow := h/k, w/k
	if lo == hi || oh == 0 || ow == 0 {
		return
	}
	if k == 2 && maxPool2ASM(y, arg, x, lo, hi, h, w) {
		return
	}
	o := lo * oh * ow
	for q := lo; q < hi; q++ {
		for r := 0; r < oh; r++ {
			p0 := q*h*w + r*k*w
			for c := 0; c < ow; c++ {
				best, bi := math.Float32bits(x[p0]), uint32(p0)
				for kh := 0; kh < k; kh++ {
					row := p0 + kh*w
					for kw := 0; kw < k; kw++ {
						v := x[row+kw]
						m := gtMask(v, math.Float32frombits(best))
						best = best&^m | math.Float32bits(v)&m
						bi = bi&^m | uint32(row+kw)&m
					}
				}
				y[o] = math.Float32frombits(best)
				if arg != nil {
					arg[o] = int32(bi)
				}
				o++
				p0 += k
			}
		}
	}
}

// MaxPoolBwd routes dy back through arg into planes [lo, hi) of dx: windows
// do not overlap, so every dx element has at most one term — 0 + dy where
// arg names it, +0 elsewhere and outside every window — and dx's previous
// contents do not matter. One Go loop at every level: a clear and a store
// per output have no branch to mispredict, and a masked-select kernel
// measured no faster in a training task.
func MaxPoolBwd(dx, dy []float32, arg []int32, lo, hi, h, w, k int) {
	checkPool("MaxPoolBwd", len(dy), len(arg), len(dx), lo, hi, h, w, k)
	oh, ow := h/k, w/k
	clear(dx[lo*h*w : hi*h*w])
	for o := lo * oh * ow; o < hi*oh*ow; o++ {
		dx[arg[o]] = 0 + dy[o]
	}
}
