package nn

import (
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// refConv is the original per-sample Conv2D algorithm (one im2col + three
// small GEMMs per sample, the lowering at batch 1), kept as the oracle for
// the batched layer.
type refConv struct {
	g         tensor.ConvGeom
	batch     int
	w, b      []float32
	col, dcol []float32
	y, dx     []float32
	gw, gb    []float32
}

func newRefConv(c *Conv2D, w []float32) *refConv {
	g := c.Geom
	nw := g.OutC * g.InC * g.KH * g.KW
	return &refConv{
		g: g, batch: c.batch,
		w: w[:nw], b: w[nw : nw+g.OutC],
		col:  make([]float32, g.ColRows()*g.ColCols()),
		dcol: make([]float32, g.ColRows()*g.ColCols()),
		y:    make([]float32, c.batch*g.OutVol()),
		dx:   make([]float32, c.batch*g.InVol()),
		gw:   make([]float32, nw),
		gb:   make([]float32, g.OutC),
	}
}

func (r *refConv) forward(x []float32) {
	g := r.g
	s := g.ColCols()
	for n := 0; n < r.batch; n++ {
		tensor.Im2colBatch(g, 1, x[n*g.InVol():(n+1)*g.InVol()], r.col, false)
		out := r.y[n*g.OutVol() : (n+1)*g.OutVol()]
		tensor.Gemm(1, r.w, g.OutC, g.ColRows(), r.col, s, 0, out)
		for oc := 0; oc < g.OutC; oc++ {
			bias := r.b[oc]
			row := out[oc*s : (oc+1)*s]
			for i := range row {
				row[i] += bias
			}
		}
	}
}

func (r *refConv) backward(x, dy []float32) {
	g := r.g
	s := g.ColCols()
	for n := 0; n < r.batch; n++ {
		dout := dy[n*g.OutVol() : (n+1)*g.OutVol()]
		for oc := 0; oc < g.OutC; oc++ {
			row := dout[oc*s : (oc+1)*s]
			var sum float32
			for _, v := range row {
				sum += v
			}
			r.gb[oc] += sum
		}
		tensor.Im2colBatch(g, 1, x[n*g.InVol():(n+1)*g.InVol()], r.col, false)
		tensor.GemmTB(1, dout, g.OutC, s, r.col, g.ColRows(), 1, r.gw)
		tensor.GemmTA(1, r.w, g.OutC, g.ColRows(), dout, s, 0, r.dcol)
		tensor.Col2imBatch(g, 1, r.dcol, r.dx[n*g.InVol():(n+1)*g.InVol()])
	}
}

// TestConv2DBatchedMatchesReference pins the batched lowering against the
// per-sample reference: forward activations, input gradients and bias
// gradients are bit-identical (same per-element accumulation order); the
// weight gradient sums the whole batch in one reduction instead of
// per-sample partial sums, so it is compared under a forward-error bound
// (see DESIGN.md §8). The reference works on NCHW; the layer gets the same
// batch channel-major, or — as a network's first layer — reads it NCHW in
// place and returns no input gradient.
func TestConv2DBatchedMatchesReference(t *testing.T) {
	configs := []struct {
		batch, inC, inH, inW, outC, k, stride, pad int
	}{
		{4, 3, 8, 8, 8, 3, 1, 1},
		{3, 8, 8, 8, 16, 3, 2, 1},
		{5, 4, 7, 9, 2, 3, 2, 1},
		{2, 6, 6, 6, 4, 1, 1, 0},
		{1, 2, 5, 5, 3, 5, 1, 2},
		{4, 8, 4, 4, 16, 3, 1, 1},
	}
	rng := tensor.NewRNG(7)
	for ci, cfg := range configs {
		for _, netIn := range []bool{false, true} {
			c := NewConv2D(cfg.batch, []int{cfg.inC, cfg.inH, cfg.inW}, cfg.outC, cfg.k, cfg.stride, cfg.pad)
			if netIn {
				c.readNetInput()
			}
			nw := c.NumParams()
			w := make([]float32, nw)
			gvec := make([]float32, nw)
			c.InitParams(rng, w)
			c.Bind(w, gvec)

			x := tensor.New(cfg.batch, cfg.inC, cfg.inH, cfg.inW)
			for i, xd := 0, x.Data(); i < len(xd); i++ {
				xd[i] = float32(rng.NormFloat64())
			}
			in := x
			if !netIn {
				in = swapNC(x)
			}
			y := swapNC(c.Forward(in, true))

			ref := newRefConv(c, w)
			ref.forward(x.Data())
			for i, v := range y.Data() {
				if math.Float32bits(v) != math.Float32bits(ref.y[i]) {
					t.Fatalf("config %d: forward element %d: %v != %v", ci, i, v, ref.y[i])
				}
			}

			dy := tensor.New(cfg.batch, cfg.outC, c.Geom.OutH(), c.Geom.OutW())
			for i, dyd := 0, dy.Data(); i < len(dyd); i++ {
				dyd[i] = float32(rng.NormFloat64())
			}
			dx := c.Backward(swapNC(dy))
			ref.backward(x.Data(), dy.Data())

			if netIn {
				if dx != nil {
					t.Fatalf("config %d: a network's first layer returned an input gradient", ci)
				}
			} else {
				for i, v := range swapNC(dx).Data() {
					if math.Float32bits(v) != math.Float32bits(ref.dx[i]) {
						t.Fatalf("config %d: dx element %d: %v != %v", ci, i, v, ref.dx[i])
					}
				}
			}
			nwOnly := c.Geom.OutC * c.Geom.InC * c.Geom.KH * c.Geom.KW
			gw, gb := gvec[:nwOnly], gvec[nwOnly:nwOnly+c.Geom.OutC]
			for i, v := range gb {
				if math.Float32bits(v) != math.Float32bits(ref.gb[i]) {
					t.Fatalf("config %d: gb element %d: %v != %v", ci, i, v, ref.gb[i])
				}
			}
			// Weight gradient: reduction regrouped across the batch. Bound by
			// k·eps·Σ|terms| with k = batch·S summands.
			const eps = 1.0 / (1 << 24)
			k := float64(cfg.batch * c.Geom.ColCols())
			for i, v := range gw {
				mag := math.Max(math.Abs(float64(v)), math.Abs(float64(ref.gw[i]))) + 1
				bound := 4 * (k + 2) * eps * mag * 8
				if d := math.Abs(float64(v) - float64(ref.gw[i])); d > bound {
					t.Fatalf("config %d: gw element %d: |%v-%v| = %g exceeds %g", ci, i, v, ref.gw[i], d, bound)
				}
			}
		}
	}
}

// TestConv2DBackwardWithoutForwardRefresh covers the colFresh fallback: two
// backward passes against the same forward must agree.
func TestConv2DBackwardWithoutForwardRefresh(t *testing.T) {
	rng := tensor.NewRNG(11)
	c := NewConv2D(2, []int{3, 6, 6}, 4, 3, 1, 1)
	w := make([]float32, c.NumParams())
	g := make([]float32, c.NumParams())
	c.InitParams(rng, w)
	c.Bind(w, g)
	x := tensor.New(3, 2, 6, 6)
	for i, xd := 0, x.Data(); i < len(xd); i++ {
		xd[i] = float32(rng.NormFloat64())
	}
	dy := tensor.New(4, 2, 6, 6)
	for i, dyd := 0, dy.Data(); i < len(dyd); i++ {
		dyd[i] = float32(rng.NormFloat64())
	}
	c.Forward(x, true)
	dx1 := append([]float32(nil), c.Backward(dy).Data()...)
	g1 := append([]float32(nil), g...)
	// Second backward without a fresh forward: col must be recomputed.
	for i := range g {
		g[i] = 0
	}
	dx2 := c.Backward(dy).Data()
	for i := range dx1 {
		if math.Float32bits(dx1[i]) != math.Float32bits(dx2[i]) {
			t.Fatalf("dx diverged at %d: %v != %v", i, dx1[i], dx2[i])
		}
	}
	for i := range g {
		if math.Float32bits(g1[i]) != math.Float32bits(g[i]) {
			t.Fatalf("grad diverged at %d: %v != %v", i, g1[i], g[i])
		}
	}
}
