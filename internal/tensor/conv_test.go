package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveConv computes a direct 2-D convolution of img (InC×InH×InW) with
// filters (OutC×InC×KH×KW), returning OutC×OutH×OutW.
func naiveConv(g ConvGeom, img, filters []float32) []float32 {
	outH, outW := g.OutH(), g.OutW()
	out := make([]float32, g.OutC*outH*outW)
	for oc := 0; oc < g.OutC; oc++ {
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				var s float32
				for ic := 0; ic < g.InC; ic++ {
					for kh := 0; kh < g.KH; kh++ {
						for kw := 0; kw < g.KW; kw++ {
							ih := oh*g.StrideH - g.PadH + kh
							iw := ow*g.StrideW - g.PadW + kw
							if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
								continue
							}
							fv := filters[((oc*g.InC+ic)*g.KH+kh)*g.KW+kw]
							iv := img[(ic*g.InH+ih)*g.InW+iw]
							s += fv * iv
						}
					}
				}
				out[(oc*outH+oh)*outW+ow] = s
			}
		}
	}
	return out
}

func TestIm2colGemmMatchesNaiveConv(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 1, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 7, InW: 9, OutC: 3, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 2, InH: 6, InW: 6, OutC: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
		{InC: 1, InH: 4, InW: 4, OutC: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	}
	r := NewRNG(31)
	for gi, g := range geoms {
		img := randSlice(r, g.InC*g.InH*g.InW)
		filters := randSlice(r, g.OutC*g.InC*g.KH*g.KW)
		col := make([]float32, g.ColRows()*g.ColCols())
		Im2colBatch(g, 1, img, col, false)
		got := make([]float32, g.OutC*g.ColCols())
		Gemm(1, filters, g.OutC, g.ColRows(), col, g.ColCols(), 0, got)
		want := naiveConv(g, img, filters)
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("geom %d element %d: got %v want %v", gi, i, got[i], want[i])
			}
		}
	}
}

// TestCol2imIsAdjoint verifies <im2col(x), y> == <x, col2im(y)> for the
// textbook oracle — the defining property of an adjoint pair, which is
// exactly what gradient propagation requires. An inner product cannot see
// the order col2im sums its taps in; TestLoweringOracle pins that.
func TestCol2imIsAdjoint(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 6, InW: 5, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}
	r := NewRNG(37)
	x := randSlice(r, g.InC*g.InH*g.InW)
	y := randSlice(r, g.ColRows()*g.ColCols())

	colX := make([]float32, g.ColRows()*g.ColCols())
	im2colTextbook(g, x, colX)
	lhs := Dot(colX, y)

	imgY := make([]float32, g.InC*g.InH*g.InW)
	col2imTextbook(g, y, imgY)
	rhs := Dot(x, imgY)

	if math.Abs(lhs-rhs) > 1e-3*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

// Property: the adjoint identity holds for the batched kernels, at batch 1,
// over random geometries.
func TestCol2imAdjointProperty(t *testing.T) {
	f := func(seed uint64, hc, wc, kc, sc uint8) bool {
		g := ConvGeom{
			InC: 1 + int(hc%2), InH: 4 + int(hc%4), InW: 4 + int(wc%4),
			OutC: 1, KH: 1 + int(kc%3), KW: 1 + int(kc%3),
			StrideH: 1 + int(sc%2), StrideW: 1 + int(sc%2),
			PadH: int(kc % 2), PadW: int(kc % 2),
		}
		if g.OutH() <= 0 || g.OutW() <= 0 {
			return true
		}
		r := NewRNG(seed)
		x := randSlice(r, g.InC*g.InH*g.InW)
		y := randSlice(r, g.ColRows()*g.ColCols())
		colX := make([]float32, g.ColRows()*g.ColCols())
		Im2colBatch(g, 1, x, colX, false)
		imgY := make([]float32, g.InC*g.InH*g.InW)
		Col2imBatch(g, 1, y, imgY)
		lhs, rhs := Dot(colX, y), Dot(x, imgY)
		return math.Abs(lhs-rhs) <= 1e-2*math.Max(1, math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeomDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-padding conv output %dx%d, want 32x32", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	if g2.OutH() != 16 || g2.OutW() != 16 {
		t.Fatalf("strided conv output %dx%d, want 16x16", g2.OutH(), g2.OutW())
	}
	if g.ColRows() != 27 {
		t.Fatalf("ColRows = %d, want 27", g.ColRows())
	}
	if g.ColCols() != 1024 {
		t.Fatalf("ColCols = %d, want 1024", g.ColCols())
	}
}
