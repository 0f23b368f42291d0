package tensor

// Convolution support: im2col/col2im lowering so that Conv2D forward and
// both backward passes reduce to GEMM. Filters are OIHW; the functions of
// this file take images as NCHW, matching the paper's cuDNN substrate — the
// layout of a network's input — while a Lowering's methods address input
// planes by two strides and so serve internal/nn's channel-major
// activations with the same kernels (lowering.go).
//
// Two granularities are provided. The per-sample kernels (Im2col, Col2im)
// are the reference lowering: scalar loops that walk each patch row's
// in-bounds spans (im2colStrided, col2imStrided). The batched kernels
// (Im2colBatch, Col2imBatch) expand a whole mini-batch into one
// ColRows × batch·S column matrix so each conv layer runs a single large
// GEMM per pass instead of batch small ones. Sample n owns columns
// [n·S, (n+1)·S), so the batched kernels are the per-sample kernels applied
// at a column offset — bit-identical output, any worker count. With SIMD
// they replay per-geometry tables instead of walking spans (lowering.go);
// the span walkers stay as the portable fallback and the test oracle.

// ConvGeom describes a 2-D convolution's geometry.
type ConvGeom struct {
	InC, InH, InW    int // input channels, height, width
	OutC             int // output channels
	KH, KW           int // kernel height, width
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// ColRows returns the number of rows of the im2col matrix (one per input
// patch element): InC*KH*KW.
func (g ConvGeom) ColRows() int { return g.InC * g.KH * g.KW }

// ColCols returns the number of columns of the im2col matrix (one per output
// spatial position): OutH*OutW.
func (g ConvGeom) ColCols() int { return g.OutH() * g.OutW() }

// InVol returns the per-sample input volume InC*InH*InW.
func (g ConvGeom) InVol() int { return g.InC * g.InH * g.InW }

// OutVol returns the per-sample output volume OutC*OutH*OutW.
func (g ConvGeom) OutVol() int { return g.OutC * g.OutH() * g.OutW() }

// Im2col expands one image (InC×InH×InW, flat) into the column matrix col
// (ColRows×ColCols, flat) so that filterMatrix(OutC×ColRows) * col yields the
// convolution output (OutC×OutH*OutW).
func Im2col(g ConvGeom, img, col []float32) {
	if len(img) < g.InVol() || len(col) < g.ColRows()*g.ColCols() {
		panic("tensor: Im2col buffer too small")
	}
	im2colStrided(g, img, g.InH*g.InW, col, g.ColCols(), 0)
}

// Im2colBatch expands a whole NCHW mini-batch x (batch×InC×InH×InW, flat)
// into one column matrix col of shape ColRows × batch·ColCols, with sample
// n occupying columns [n·ColCols, (n+1)·ColCols). Every element of col is
// written, padding zeros included, so col may hold anything on entry.
//
// skipPad is ignored; it is kept for callers written when a steady-state
// call could skip the padding positions. Callers that lower the same
// geometry repeatedly should hold LoweringFor(g) and call its methods: this
// wrapper resolves the geometry's tables on every call.
func Im2colBatch(g ConvGeom, batch int, x, col []float32, skipPad bool) {
	LoweringFor(g).Im2colBatch(batch, x, g.InVol(), g.InH*g.InW, col)
}

// owBoundsBuf is the stack scratch for owBounds; kernels up to 8 wide (all
// the benchmark models) avoid any allocation.
type owBoundsBuf [16]int

// owBounds fills owb with owRange for every kw of the geometry (flattened
// [owLo₀, owHi₀, owLo₁, …]) so the division-heavy bounds run once per kernel
// call, not once per channel row. owb needs 2·KW entries.
func owBounds(g ConvGeom, owb []int) {
	for kw := 0; kw < g.KW; kw++ {
		owb[2*kw], owb[2*kw+1] = owRange(g.OutW(), g.StrideW, g.PadW, kw, g.InW)
	}
}

// owRange returns the [owLo, owHi) range of output columns whose input
// column iw = ow*strideW - padW + kw lands inside [0, inW).
func owRange(outW, strideW, padW, kw, inW int) (int, int) {
	owLo := 0
	if padW > kw {
		owLo = (padW - kw + strideW - 1) / strideW
	}
	owHi := 0
	if t := inW + padW - kw - 1; t >= 0 {
		owHi = t/strideW + 1
	}
	if owHi > outW {
		owHi = outW
	}
	if owLo > owHi {
		owLo = owHi
	}
	return owLo, owHi
}

// im2colStrided writes one sample's column block: row r of the patch matrix
// lands at col[r*ld+off : r*ld+off+ColCols]; the sample's channel planes are
// sc elements apart in img. Horizontal bounds are hoisted out of the inner
// loop, so interior spans run branch-free (contiguous copy at stride 1).
func im2colStrided(g ConvGeom, img []float32, sc int, col []float32, ld, off int) {
	outH, outW := g.OutH(), g.OutW()
	var owbBuf owBoundsBuf
	owb := owbBuf[:]
	if 2*g.KW > len(owb) {
		owb = make([]int, 2*g.KW)
	}
	owBounds(g, owb)
	for c := 0; c < g.InC; c++ {
		chOff := c * sc
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				dst := col[row*ld+off : row*ld+off+outH*outW]
				owLo, owHi := owb[2*kw], owb[2*kw+1]
				di := 0
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						for i := di; i < di+outW; i++ {
							dst[i] = 0
						}
						di += outW
						continue
					}
					rowOff := chOff + ih*g.InW
					for i := di; i < di+owLo; i++ {
						dst[i] = 0
					}
					if g.StrideW == 1 {
						lo := owLo - g.PadW + kw
						w := owHi - owLo
						d := dst[di+owLo : di+owLo+w]
						s := img[rowOff+lo : rowOff+lo+w]
						if w < 16 {
							// Tiny spans: an inline loop beats memmove's
							// call overhead.
							for i := range d {
								d[i] = s[i]
							}
						} else {
							copy(d, s)
						}
					} else {
						iw := owLo*g.StrideW - g.PadW + kw
						for ow := owLo; ow < owHi; ow++ {
							dst[di+ow] = img[rowOff+iw]
							iw += g.StrideW
						}
					}
					for i := di + owHi; i < di+outW; i++ {
						dst[i] = 0
					}
					di += outW
				}
			}
		}
	}
}

// Col2im scatters the column matrix back into an image, accumulating
// overlapping patch contributions. It is the adjoint of Im2col and is used
// to propagate gradients to the convolution input. img must be zeroed (or
// hold a partial accumulation) on entry.
func Col2im(g ConvGeom, col, img []float32) {
	if len(img) < g.InVol() || len(col) < g.ColRows()*g.ColCols() {
		panic("tensor: Col2im buffer too small")
	}
	col2imStrided(g, col, g.ColCols(), 0, img, g.InH*g.InW)
}

// Col2imBatch scatters the batched column matrix col (ColRows × batch·ColCols,
// laid out as produced by Im2colBatch) into the NCHW batch x, overwriting x.
// It is the adjoint of Im2colBatch.
func Col2imBatch(g ConvGeom, batch int, col, x []float32) {
	LoweringFor(g).Col2imBatch(batch, col, x, g.InVol(), g.InH*g.InW)
}

// col2imStrided accumulates one sample's column block (row r at
// col[r*ld+off]) into img, whose channel planes are sc elements apart, with
// horizontal bounds hoisted like im2colStrided's.
func col2imStrided(g ConvGeom, col []float32, ld, off int, img []float32, sc int) {
	outH, outW := g.OutH(), g.OutW()
	var owbBuf owBoundsBuf
	owb := owbBuf[:]
	if 2*g.KW > len(owb) {
		owb = make([]int, 2*g.KW)
	}
	owBounds(g, owb)
	for c := 0; c < g.InC; c++ {
		chOff := c * sc
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				src := col[row*ld+off : row*ld+off+outH*outW]
				owLo, owHi := owb[2*kw], owb[2*kw+1]
				if g.StrideW == 1 && g.StrideH == 1 && owLo == 0 && owHi == outW && outW == g.InW {
					// Full-width stride-1 rows: one contiguous accumulate
					// over the valid vertical block. Each img element still
					// receives exactly one term from this (c,kh,kw) row in
					// the same position order, so accumulation order — and
					// therefore bits — are unchanged.
					ohLo, ohHi := 0, outH
					if g.PadH > kh {
						ohLo = g.PadH - kh
					}
					if t := g.InH + g.PadH - kh; t < ohHi {
						ohHi = t
					}
					if ohLo < ohHi {
						src0 := chOff + (ohLo+kh-g.PadH)*g.InW
						AccumAdd(img[src0:src0+(ohHi-ohLo)*outW], src[ohLo*outW:ohHi*outW])
					}
					continue
				}
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						continue
					}
					rowOff := chOff + ih*g.InW
					si := oh * outW
					if g.StrideW == 1 {
						lo := owLo - g.PadW + kw
						AccumAdd(img[rowOff+lo:rowOff+lo+owHi-owLo], src[si+owLo:si+owHi])
					} else {
						iw := owLo*g.StrideW - g.PadW + kw
						for ow := owLo; ow < owHi; ow++ {
							img[rowOff+iw] += src[si+ow]
							iw += g.StrideW
						}
					}
				}
			}
		}
	}
}
