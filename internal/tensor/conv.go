package tensor

// Convolution support: im2col/col2im lowering so that Conv2D forward and
// both backward passes reduce to GEMM. Filters are OIHW; the functions of
// this file take images as NCHW, matching the paper's cuDNN substrate — the
// layout of a network's input — while a Lowering's methods address input
// planes by two strides and so serve internal/nn's channel-major
// activations with the same kernels (lowering.go).
//
// The kernels are batched (Im2colBatch, Col2imBatch): they expand a whole
// mini-batch into one ColRows × batch·S column matrix so each conv layer
// runs a single large GEMM per pass instead of batch small ones. Sample n
// owns columns [n·S, (n+1)·S), so every sample's block is the textbook
// lowering of that sample — bit-identical output, any batch size and worker
// count. Every level replays per-geometry tables (lowering.go); the
// textbook loops live in lowering_test.go as the oracle.

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

// Col2imBatch scatters the batched column matrix col (ColRows × batch·ColCols,
// laid out as produced by Im2colBatch) into the NCHW batch x, overwriting x.
// It is the adjoint of Im2colBatch.
func Col2imBatch(g ConvGeom, batch int, col, x []float32) {
	LoweringFor(g).Col2imBatch(batch, col, x, g.InVol(), g.InH*g.InW)
}
