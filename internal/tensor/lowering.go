package tensor

import (
	"sync"
	"sync/atomic"
)

// Table-driven conv lowering. On the scaled models' 8×8, 4×4 and 2×2 planes
// every in-bounds span of a patch row is 1–8 floats, so the span walkers in
// conv.go spend their time on loop control, not on moving data. A Lowering
// holds what is static about one geometry — which input element each column
// position reads, and which positions are padding — as tables built once,
// and the batched kernels replay them.
//
// Same-grid geometries (stride 1, OutH×OutW = InH×InW: every 3×3 pad-1,
// 5×5 pad-2 and 1×1 pad-0 conv) need no indices at all. Column row
// (c, kh, kw) is input plane c shifted by the constant
//
//	δ = (kh−PadH)·InW + (kw−PadW)
//
// under a validity mask that depends only on the tap and the position:
// col[(c,kh,kw)][q] = plane_c[q+δ] where the mask is set, 0 where it is
// clear. im2col is therefore one masked 8-lane load and one store per eight
// positions (lowering_amd64.s). col2im is its gather adjoint: each input
// position sums, over the taps in ascending (kh, kw), the one column element
// that read it,
//
//	dx_c[p] = Σ_taps dcol[(c,tap)][p−δ_tap]   (masked lanes contribute +0).
//
// Accumulation order. The scatter in col2imStrided visits rows in ascending
// (c, kh, kw) and adds each row's term into a plane that starts at +0, so
// every dx element receives its terms in ascending tap order. The gather
// adds the same terms in the same order into an accumulator that starts at
// +0, plus a +0 for every tap whose read fell in the padding. Adding +0 is
// exact unless the accumulator is −0, and a round-to-nearest sum that
// started at +0 is never −0 (x+y = −0 only when both are −0). The results
// are bit-identical; a NaN keeps being a NaN but, as in DESIGN.md §17, which
// payload survives a sum of two different NaNs is not pinned.
//
// Every other geometry (strided convs and projections) replays a
// source-index table: src[tap·S+q] is the offset inside the input plane that
// column position q of that tap reads, −1 for padding. The tables are
// channel-independent, KH·KW × S entries.
//
// Every kernel here writes every element of its output — padding positions
// get explicit zeros — so col carries no state from one call to the next
// and may be planned like any other buffer (internal/nn/memory.go).
//
// Dispatch is by ISA level. The AVX2 kernels (elemActive) handle one sample
// a call, eight lanes a block, and replay the index table in Go. The AVX-512
// kernels (zActive; zTables below) pass once over a whole channel row of the
// batch wherever the samples' planes are contiguous — sixteen lanes a block
// under opmask tables periodic in the plane — and gather through the index
// table; GemmConv goes one step further and feeds a forward-only GEMM from x
// through the same tables, with no column matrix at all. With SIMD off
// (CROSSBOW_NOSIMD, a pre-AVX2 CPU, another architecture) both batched
// kernels run the span walkers sample by sample.
//
// The image side is addressed by two strides, in elements: input plane
// (sample n, channel c) starts at x[n·sn + c·sc]. An NCHW batch — the
// network input, and the package-level Im2colBatch/Col2imBatch — is
// (InVol, InH·InW); the channel-major activations inside internal/nn are
// (InH·InW, batch·InH·InW). Every kernel walks one plane at a time, so the
// strides only choose where a plane starts; col is laid out the same either
// way.

// Lowering is the resolved lowering of one convolution geometry. It is
// immutable after construction and safe for concurrent use.
type Lowering struct {
	g              ConvGeom
	s, rows, plane int // ColCols, ColRows, InH·InW
	// ParallelFor grains over the batch, in samples: a chunk is worth a
	// goroutine from about 20 µs of work. That is 2^14 lowered elements for
	// the span walkers and the index table (1–1.5 ns an element) and 2^17
	// for the plane-shift kernels (0.15–0.2 ns an element, measured on the
	// ResNet-32 stage geometries; splitting their b=16 calls in two was
	// slower than running them on the caller).
	grain, shiftGrain int

	// Same-grid geometries: shift[t] is tap t's δ; fwdMask holds im2col's
	// lane masks tap-major ([tap][block][8]), adjMask col2im's block-major
	// ([block][tap][8]) so each kernel walks its table front to back. A set
	// lane is all ones, as VMASKMOVPS wants it. blocks = ⌈plane/8⌉; when
	// plane is not a multiple of 8, tail masks the last block's store.
	shift            []int32
	fwdMask, adjMask []int32
	tail             [8]int32
	blocks, rem      int

	// Every other geometry: src[t·s+q], −1 for padding.
	src []int32

	// The AVX-512 kernels' tables (lowering_amd64.go), periodic in the plane
	// so one pass covers a whole channel row of the batch.
	z zTables
}

var (
	loweringMu sync.Mutex   // serialises inserts; lookups are lock-free
	lowerings  atomic.Value // map[ConvGeom]*Lowering, copied on insert
)

// LoweringFor returns the geometry's Lowering, building its tables on first
// use (microseconds; a few KB for the scaled models). Layers resolve it once
// and keep the pointer.
func LoweringFor(g ConvGeom) *Lowering {
	cur, _ := lowerings.Load().(map[ConvGeom]*Lowering)
	if l := cur[g]; l != nil {
		return l
	}
	loweringMu.Lock()
	defer loweringMu.Unlock()
	cur, _ = lowerings.Load().(map[ConvGeom]*Lowering)
	if l := cur[g]; l != nil {
		return l
	}
	next := make(map[ConvGeom]*Lowering, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	l := newLowering(g)
	next[g] = l
	lowerings.Store(next)
	return l
}

// sameGrid reports whether the output grid is the input grid: stride 1 and
// OutH×OutW = InH×InW, the geometries whose lowering is a plane shift.
func (g ConvGeom) sameGrid() bool {
	return g.StrideH == 1 && g.StrideW == 1 && g.OutH() == g.InH && g.OutW() == g.InW
}

func newLowering(g ConvGeom) *Lowering {
	l := &Lowering{
		g: g, s: g.ColCols(), rows: g.ColRows(), plane: g.InH * g.InW,
	}
	l.grain = 1 + (1<<14)/max(1, l.rows*l.s)
	l.shiftGrain = 1 + (1<<17)/max(1, l.rows*l.s)
	if l.rows <= 0 || l.s <= 0 {
		return l // nothing to lower: no tables, the span walkers no-op
	}
	if g.sameGrid() {
		l.buildShift()
	} else {
		l.buildIndex()
	}
	l.buildZ()
	return l
}

// buildShift fills the plane-shift tables of a same-grid geometry.
func (l *Lowering) buildShift() {
	g := l.g
	taps := g.KH * g.KW
	l.blocks, l.rem = (l.plane+7)/8, l.plane%8
	for i := 0; i < l.rem; i++ {
		l.tail[i] = -1
	}
	l.shift = make([]int32, taps)
	l.fwdMask = make([]int32, taps*l.blocks*8)
	l.adjMask = make([]int32, l.blocks*taps*8)
	inside := func(h, w int) bool { return h >= 0 && h < g.InH && w >= 0 && w < g.InW }
	for kh := 0; kh < g.KH; kh++ {
		for kw := 0; kw < g.KW; kw++ {
			t := kh*g.KW + kw
			dh, dw := kh-g.PadH, kw-g.PadW
			l.shift[t] = int32(dh*g.InW + dw)
			for p := 0; p < l.plane; p++ {
				h, w := p/g.InW, p%g.InW
				// Output position p reads input (h+dh, w+dw); input
				// position p is read by output (h−dh, w−dw).
				if inside(h+dh, w+dw) {
					l.fwdMask[t*l.blocks*8+p] = -1
				}
				if inside(h-dh, w-dw) {
					l.adjMask[(p/8*taps+t)*8+p%8] = -1
				}
			}
		}
	}
}

// buildIndex fills the source-index table of a geometry that is not
// same-grid.
func (l *Lowering) buildIndex() {
	g := l.g
	outW := g.OutW()
	l.src = make([]int32, g.KH*g.KW*l.s)
	for kh := 0; kh < g.KH; kh++ {
		for kw := 0; kw < g.KW; kw++ {
			row := l.src[(kh*g.KW+kw)*l.s:][:l.s]
			for q := range row {
				ih := q/outW*g.StrideH - g.PadH + kh
				iw := q%outW*g.StrideW - g.PadW + kw
				if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
					row[q] = int32(ih*g.InW + iw)
				} else {
					row[q] = -1
				}
			}
		}
	}
}

// zTables are the AVX-512 kernels' tables. The kernels walk a whole channel
// row of the batch — batch·S positions, contiguous in the channel-major
// layout — sixteen lanes a block, so their tables are periodic in the plane:
// block b of a row uses entry b mod period, period = S/gcd(S, 16) blocks
// (4 for the 8×8 plane, one for 4×4 and 2×2, nine for LeNet's 6×6 and 12×12).
type zTables struct {
	// fwdPeriod and adjPeriod are the periods, in blocks, of im2col's walk
	// over column positions and col2im's over input positions (equal for a
	// same-grid geometry).
	fwdPeriod, adjPeriod int

	// Same-grid: one 16-bit opmask per (block, tap), [block][tap]; bit l is
	// the int32 tables' lane for position (16·block + l) mod S. 2 bytes
	// where fwdMask/adjMask spend 64.
	fwd, adj []uint16

	// Every other geometry: gather indices, sixteen a block, −1 for a lane
	// that moves nothing. im2col's are per (tap, block) and count from the
	// input plane of the period's first sample — the next sample's plane
	// follows at +InH·InW — and fwdStep is the input elements a period
	// spans; col2im's are per (block, tap), count from the period's first
	// column, and adjStep is the columns a period spans.
	fwdIdx, adjIdx   []int32
	fwdStep, adjStep int
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// buildZ derives the AVX-512 tables from the AVX2/Go ones.
func (l *Lowering) buildZ() {
	taps := l.g.KH * l.g.KW
	z := &l.z
	z.fwdPeriod = l.s / gcd(l.s, 16)
	z.adjPeriod = l.plane / gcd(l.plane, 16)
	if l.shift != nil {
		z.fwd = make([]uint16, z.fwdPeriod*taps)
		z.adj = make([]uint16, z.adjPeriod*taps)
		for b := 0; b < z.fwdPeriod; b++ {
			for t := 0; t < taps; t++ {
				for lane := 0; lane < 16; lane++ {
					p := (b*16 + lane) % l.plane
					if l.fwdMask[t*l.blocks*8+p] != 0 {
						z.fwd[b*taps+t] |= 1 << lane
					}
					if l.adjMask[(p/8*taps+t)*8+p%8] != 0 {
						z.adj[b*taps+t] |= 1 << lane
					}
				}
			}
		}
		return
	}
	z.fwdStep = z.fwdPeriod * 16 / l.s * l.plane
	z.fwdIdx = make([]int32, taps*z.fwdPeriod*16)
	z.adjStep = z.adjPeriod * 16 / l.plane * l.s
	z.adjIdx = make([]int32, z.adjPeriod*taps*16)
	inv := make([]int32, l.plane) // which column position of a tap reads an input position
	for t := 0; t < taps; t++ {
		src := l.src[t*l.s:][:l.s]
		for i := range inv {
			inv[i] = -1
		}
		for q, ix := range src {
			if ix >= 0 {
				inv[ix] = int32(q)
			}
		}
		for j := range z.fwdIdx[t*z.fwdPeriod*16:][:z.fwdPeriod*16] {
			ix := src[j%l.s]
			if ix >= 0 {
				ix += int32(j / l.s * l.plane)
			}
			z.fwdIdx[t*z.fwdPeriod*16+j] = ix
		}
		for p := 0; p < z.adjPeriod*16; p++ {
			q := inv[p%l.plane]
			if q >= 0 {
				q += int32(p / l.plane * l.s)
			}
			z.adjIdx[(p/16*taps+t)*16+p%16] = q
		}
	}
}

// Im2colBatch lowers a batch whose input planes sit at strides (sn, sc) into
// col (ColRows × batch·ColCols, sample n in columns [n·ColCols, (n+1)·ColCols)).
func (l *Lowering) Im2colBatch(batch int, x []float32, sn, sc int, col []float32) {
	if !l.holds(batch, x, sn, sc, col) {
		panic("tensor: Im2colBatch buffer too small")
	}
	grain := l.batchGrain()
	if !parSplits(batch, grain) {
		// One chunk: no closure is built, so the call does not allocate
		// whatever the worker budget.
		l.im2colSamples(0, batch, batch, x, sn, sc, col)
		return
	}
	ParallelFor(batch, grain, func(lo, hi int) { l.im2colSamples(lo, hi, batch, x, sn, sc, col) })
}

// Col2imBatch is the adjoint: it gathers col into the batch's input planes
// at strides (sn, sc), overwriting them.
func (l *Lowering) Col2imBatch(batch int, col, x []float32, sn, sc int) {
	if !l.holds(batch, x, sn, sc, col) {
		panic("tensor: Col2imBatch buffer too small")
	}
	grain := l.batchGrain()
	if !parSplits(batch, grain) {
		l.col2imSamples(0, batch, batch, col, x, sn, sc)
		return
	}
	ParallelFor(batch, grain, func(lo, hi int) { l.col2imSamples(lo, hi, batch, col, x, sn, sc) })
}

// DirectConv reports whether the forward product of geometry g over a batch
// can read its B operand through the plane-shift tables instead of a column
// matrix (GemmConv): a same-grid geometry, on a host running the AVX-512
// kernels, with at least one whole 16-column block in a row of the product —
// below that (2×2 planes at b ≤ 3) the tile's narrow form over a column
// matrix is the faster one (1.2× at b = 1, measured), and the in-place read
// has no narrow form. It builds no tables, so planning walks may ask.
func DirectConv(g ConvGeom, batch int) bool {
	return zActive() && g.sameGrid() && g.ColRows() > 0 && batch*g.ColCols() >= gemmMaxNR
}

// GemmConv computes a same-grid convolution's forward product without its
// column matrix: y (OutC × batch·S, sample n in columns [n·S, (n+1)·S)) =
// w (OutC × ColRows) · im2col(x), then the epilogue. Row (c, kh, kw) of the
// B operand is channel row c of x under the tap's shift and opmask, loaded
// inside the GEMM tile's k loop where Im2colBatch would have stored it and
// the GEMM loaded it back; the k order — ascending (c, kh, kw) — and every
// element's chain of roundings are those of Gemm over the column matrix, so
// y is bit-identical. Nothing reads a column matrix twice in a forward-only
// pass, which is what makes this the inference path; training keeps col for
// the weight gradient. Callers check DirectConv first.
func (l *Lowering) GemmConv(w []float32, batch int, x []float32, sn, sc int, y []float32, epi *Epilogue) {
	if !DirectConv(l.g, batch) {
		panic("tensor: GemmConv needs a same-grid geometry, a whole block of columns and the AVX-512 kernels")
	}
	if !l.holdsPlanes(batch, x, sn, sc) || len(w) < l.g.OutC*l.rows || len(y) < l.g.OutC*batch*l.s {
		panic("tensor: GemmConv buffer too small")
	}
	grain := 1 + parGrainFlops/(2*l.rows*l.g.OutC*l.s)
	if !parSplits(batch, grain) {
		l.gemmConvSamples(0, batch, batch, w, x, sn, sc, y, epi)
		return
	}
	ParallelFor(batch, grain, func(lo, hi int) { l.gemmConvSamples(lo, hi, batch, w, x, sn, sc, y, epi) })
}

// holds reports whether x holds the batch's planes (holdsPlanes) and col its
// column matrix: the kernels below take raw pointers.
func (l *Lowering) holds(batch int, x []float32, sn, sc int, col []float32) bool {
	return l.holdsPlanes(batch, x, sn, sc) && len(col) >= l.rows*batch*l.s
}

// holdsPlanes reports whether the last plane the strides (sn, sc) reach lies
// inside x.
func (l *Lowering) holdsPlanes(batch int, x []float32, sn, sc int) bool {
	return sn >= 0 && sc >= 0 && (batch-1)*sn+(l.g.InC-1)*sc+l.plane <= len(x)
}

// batchGrain is the ParallelFor grain of the kernel the call will run.
func (l *Lowering) batchGrain() int {
	if (l.shift != nil && elemActive()) || zActive() {
		return l.shiftGrain
	}
	return l.grain
}

// tables reports whether the batched kernels replay the tables or, with
// SIMD off, walk spans.
func (l *Lowering) tables() bool { return elemActive() && (l.shift != nil || l.src != nil) }

// im2colSamples lowers samples [lo, hi) of the batch into their column
// blocks of col.
func (l *Lowering) im2colSamples(lo, hi, batch int, x []float32, sn, sc int, col []float32) {
	ld := batch * l.s
	tables := l.tables()
	if tables && zActive() {
		l.lowerZ(false, lo, hi, x, sn, sc, col, ld)
		return
	}
	for n := lo; n < hi; n++ {
		img := x[n*sn:]
		switch {
		case !tables:
			im2colStrided(l.g, img, sc, col, ld, n*l.s)
		case l.shift != nil:
			im2colShiftAVX2(&img[0], &col[n*l.s], &l.shift[0], &l.fwdMask[0], &l.tail[0],
				l.g.InC, len(l.shift), l.blocks, l.rem, sc, ld)
		default:
			l.im2colIndexed(img, sc, col, ld, n*l.s)
		}
	}
}

// col2imSamples gathers samples [lo, hi) of the batch out of their column
// blocks of col, overwriting their planes of x.
func (l *Lowering) col2imSamples(lo, hi, batch int, col, x []float32, sn, sc int) {
	ld := batch * l.s
	tables := l.tables()
	if tables && zActive() {
		l.lowerZ(true, lo, hi, x, sn, sc, col, ld)
		return
	}
	for n := lo; n < hi; n++ {
		img := x[n*sn:]
		if !tables || l.shift == nil {
			// The scatter kernels accumulate: start every plane at +0.
			for c := 0; c < l.g.InC; c++ {
				clear(img[c*sc : c*sc+l.plane])
			}
		}
		switch {
		case !tables:
			col2imStrided(l.g, col, ld, n*l.s, img, sc)
		case l.shift != nil:
			col2imShiftAVX2(&col[n*l.s], &img[0], &l.shift[0], &l.adjMask[0], &l.tail[0],
				l.g.InC, len(l.shift), l.blocks, l.rem, sc, ld)
		default:
			l.col2imIndexed(col, ld, n*l.s, img, sc)
		}
	}
}

// im2colIndexed replays the source-index table over one sample.
func (l *Lowering) im2colIndexed(img []float32, sc int, col []float32, ld, off int) {
	taps := l.g.KH * l.g.KW
	for c := 0; c < l.g.InC; c++ {
		plane := img[c*sc : c*sc+l.plane]
		for t := 0; t < taps; t++ {
			dst := col[(c*taps+t)*ld+off:][:l.s]
			for q, ix := range l.src[t*l.s:][:l.s] {
				if ix >= 0 {
					dst[q] = plane[ix]
				} else {
					dst[q] = 0
				}
			}
		}
	}
}

// col2imIndexed scatters one sample's column block through the source-index
// table, rows in ascending (c, kh, kw) and positions in ascending order like
// col2imStrided, so every image element accumulates the same terms in the
// same order.
func (l *Lowering) col2imIndexed(col []float32, ld, off int, img []float32, sc int) {
	taps := l.g.KH * l.g.KW
	for c := 0; c < l.g.InC; c++ {
		plane := img[c*sc : c*sc+l.plane]
		for t := 0; t < taps; t++ {
			src := col[(c*taps+t)*ld+off:][:l.s]
			for q, ix := range l.src[t*l.s:][:l.s] {
				if ix >= 0 {
					plane[ix] += src[q]
				}
			}
		}
	}
}
