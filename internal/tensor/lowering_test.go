package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func sq(inC, h, w, k, stride, pad int) ConvGeom {
	return ConvGeom{InC: inC, InH: h, InW: w, OutC: 2, KH: k, KW: k,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
}

// loweringGeoms covers both table kinds and their edges: same-grid planes of
// 4, 9, 16, 36, 63, 64 and 144 positions (below one vector, not a multiple of
// 8, exact multiples, rows wider than a vector), 1×1 and 5×5 kernels, a
// non-square kernel with mixed padding, and — for the source-index table —
// strided 3×3 and 1×1, pad 0, and a stride that differs per axis. The
// 64-channel 12×12 case and the 16-channel strided one are large enough for
// a batch of 4 or 5 to split across workers.
var loweringGeoms = []ConvGeom{
	sq(3, 2, 2, 3, 1, 1), sq(2, 3, 3, 3, 1, 1), sq(3, 4, 4, 3, 1, 1), sq(2, 6, 6, 3, 1, 1),
	sq(2, 7, 9, 3, 1, 1), sq(3, 8, 8, 3, 1, 1), sq(64, 12, 12, 3, 1, 1), sq(16, 16, 16, 3, 2, 1),
	sq(2, 6, 6, 1, 1, 0), sq(1, 5, 4, 5, 1, 2), sq(2, 4, 4, 5, 1, 2),
	{InC: 2, InH: 5, InW: 11, OutC: 1, KH: 3, KW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 0},
	sq(3, 8, 8, 3, 2, 1), sq(2, 4, 4, 3, 2, 1), sq(2, 7, 9, 3, 2, 1),
	sq(2, 8, 8, 1, 2, 0), sq(3, 4, 4, 1, 2, 0), sq(1, 5, 5, 3, 1, 0), sq(2, 9, 9, 3, 1, 0),
	{InC: 2, InH: 6, InW: 5, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1},
}

// im2colTextbook is the lowering by its definition, one sample: column row
// (c, kh, kw) at output position (oh, ow) holds input element
// (c, oh·StrideH−PadH+kh, ow·StrideW−PadW+kw), or 0 where that falls in the
// padding. img is InC×InH×InW, col ColRows×ColCols. It is the oracle every
// level of the lowering is pinned to.
func im2colTextbook(g ConvGeom, img, col []float32) {
	outH, outW := g.OutH(), g.OutW()
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := col[((c*g.KH+kh)*g.KW+kw)*outH*outW:]
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
						var v float32
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							v = img[(c*g.InH+ih)*g.InW+iw]
						}
						row[oh*outW+ow] = v
					}
				}
			}
		}
	}
}

// col2imTextbook is the adjoint by its definition, one sample: input element
// (c, ih, iw) is +0 plus, for each tap (kh, kw) in ascending order, the one
// column element of that tap that read it, if any. img is overwritten.
func col2imTextbook(g ConvGeom, col, img []float32) {
	outH, outW := g.OutH(), g.OutW()
	for c := 0; c < g.InC; c++ {
		for ih := 0; ih < g.InH; ih++ {
			for iw := 0; iw < g.InW; iw++ {
				var sum float32
				for kh := 0; kh < g.KH; kh++ {
					for kw := 0; kw < g.KW; kw++ {
						dh, dw := ih+g.PadH-kh, iw+g.PadW-kw
						if dh < 0 || dw < 0 || dh%g.StrideH != 0 || dw%g.StrideW != 0 {
							continue
						}
						oh, ow := dh/g.StrideH, dw/g.StrideW
						if oh < outH && ow < outW {
							sum += col[((c*g.KH+kh)*g.KW+kw)*outH*outW+oh*outW+ow]
						}
					}
				}
				img[(c*g.InH+ih)*g.InW+iw] = sum
			}
		}
	}
}

func nanFill(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

// runLoweringOracle pins the batched kernels to the textbook lowering bit
// for bit. Both outputs start full of NaN: a position the kernel failed
// to write — im2col's padding zeros above all — fails the comparison, which
// is what lets col be planned as an ordinary, dirty buffer. It runs
// serial and with the batch split across workers.
func runLoweringOracle(t *testing.T) {
	defer SetWorkerBudget(WorkerBudget())
	for _, workers := range []int{1, 3} {
		SetWorkerBudget(workers)
		checkLoweringOracle(t)
	}
}

func checkLoweringOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, g := range loweringGeoms {
		s, rows, inVol := g.ColCols(), g.ColRows(), g.InVol()
		for batch := 1; batch <= 5; batch++ {
			name := fmt.Sprintf("%+v batch=%d", g, batch)
			x := smaFill(r, batch*inVol, batch%2)
			col := nanFill(rows * batch * s)
			Im2colBatch(g, batch, x, col, batch%2 == 0)
			want := make([]float32, rows*s)
			for n := 0; n < batch; n++ {
				im2colTextbook(g, x[n*inVol:(n+1)*inVol], want)
				for row := 0; row < rows; row++ {
					elemBitsEqual(t, fmt.Sprintf("Im2colBatch %s sample %d row %d", name, n, row), s,
						col[row*batch*s+n*s:][:s], want[row*s:][:s])
				}
			}

			dcol := smaFill(r, rows*batch*s, 1-batch%2)
			dx := nanFill(batch * inVol)
			Col2imBatch(g, batch, dcol, dx)
			sample := make([]float32, rows*s)
			img := make([]float32, inVol)
			for n := 0; n < batch; n++ {
				for row := 0; row < rows; row++ {
					copy(sample[row*s:][:s], dcol[row*batch*s+n*s:][:s])
				}
				col2imTextbook(g, sample, img)
				smaBitsEqual(t, fmt.Sprintf("Col2imBatch %s sample %d", name, n), dx[n*inVol:(n+1)*inVol], img)
			}

			// The same batch channel-major: only where a plane starts
			// changes, so col is equal and dx is the same planes permuted.
			plane := g.InH * g.InW
			l := LoweringFor(g)
			colCM := nanFill(rows * batch * s)
			l.Im2colBatch(batch, channelMajor(x, batch, g.InC, plane, 1-batch%2), plane, batch*plane, colCM)
			elemBitsEqual(t, "Im2colBatch channel-major "+name, rows*batch*s, colCM, col)
			dxCM := nanFill(batch * inVol)
			l.Col2imBatch(batch, dcol, dxCM, plane, batch*plane)
			smaBitsEqual(t, "Col2imBatch channel-major "+name, sampleMajor(dxCM, batch, g.InC, plane), dx)

			// Strides from two different layouts reach past x; the kernels
			// take raw pointers, so the call must panic first.
			if batch > 1 && g.InC > 1 {
				loweringMustPanic(t, "Im2colBatch "+name, func() { l.Im2colBatch(batch, x, inVol, batch*plane, colCM) })
				loweringMustPanic(t, "Col2imBatch "+name, func() { l.Col2imBatch(batch, dcol, dxCM, inVol, batch*plane) })
			}
		}
	}
}

func loweringMustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s with mismatched plane strides did not panic", what)
		}
	}()
	f()
}

// TestLoweringOracle: Im2colBatch/Col2imBatch ≡ the textbook lowering of
// each sample on inputs dense in NaN, ±Inf, −0 and denormals, serial and
// with the batch split across workers. Mutation-checked: summing col2im's
// taps in descending order — in a kernel or in the oracle — fails it, while
// the inner-product test of the adjoint (TestCol2imIsAdjoint) passes.
func TestLoweringOracle(t *testing.T) {
	runLoweringOracle(t)
}

// TestLoweringOracleAVX2 re-runs the oracle one ISA level down — the AVX2
// plane-shift kernels and the Go index replay — on hosts whose default is
// the AVX-512 kernels: what CROSSBOW_NOAVX512=1 executes.
func TestLoweringOracleAVX2(t *testing.T) {
	defer setGemmZ(setGemmZ(false))
	runLoweringOracle(t)
}

// TestLoweringOracleScalarFallback re-runs the oracle with SIMD off — the
// Go index replay for every geometry: what CROSSBOW_NOSIMD=1 and non-amd64
// builds execute.
func TestLoweringOracleScalarFallback(t *testing.T) {
	defer setGemmASM(setGemmASM(false))
	runLoweringOracle(t)
}

// TestLoweringTables checks the tables against the definition of the
// lowering, position by position: the source-index table every geometry
// has, and the plane-shift tables only a same-grid one has.
func TestLoweringTables(t *testing.T) {
	for _, g := range loweringGeoms {
		l := newLowering(g)
		sameGrid := g.StrideH == 1 && g.StrideW == 1 && g.OutH() == g.InH && g.OutW() == g.InW
		if (l.shift != nil) != sameGrid || len(l.src) != g.KH*g.KW*l.s {
			t.Fatalf("%+v: same-grid %v, got shift %v, %d index entries", g, sameGrid, l.shift != nil, len(l.src))
		}
		outW, taps := g.OutW(), g.KH*g.KW
		for tap := 0; tap < taps; tap++ {
			kh, kw := tap/g.KW, tap%g.KW
			for q := 0; q < l.s; q++ {
				ih, iw := q/outW*g.StrideH-g.PadH+kh, q%outW*g.StrideW-g.PadW+kw
				want := int32(-1)
				if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
					want = int32(ih*g.InW + iw)
				}
				if got := l.src[tap*l.s+q]; got != want {
					t.Fatalf("%+v tap %d position %d: index reads %d, want %d", g, tap, q, got, want)
				}
				if !sameGrid {
					continue
				}
				got := int32(-1)
				if l.fwdMask[tap*l.blocks*8+q] != 0 {
					got = int32(q) + l.shift[tap]
					// The adjoint mask must name the same (tap, source) pair.
					if l.adjMask[(int(got)/8*taps+tap)*8+int(got)%8] != -1 {
						t.Fatalf("%+v tap %d: adjoint mask clear at source %d of position %d", g, tap, got, q)
					}
				}
				if got != want {
					t.Fatalf("%+v tap %d position %d: shift reads %d, want %d", g, tap, q, got, want)
				}
			}
		}
		if sameGrid {
			set := func(m []int32) (n int) {
				for _, v := range m {
					if v != 0 {
						n++
					}
				}
				return n
			}
			if f, a := set(l.fwdMask), set(l.adjMask); f != a {
				t.Fatalf("%+v: %d forward lanes, %d adjoint lanes", g, f, a)
			}
		}
	}
}

// TestLoweringSingleChunkDoesNotAllocate: with workers to spare but a batch
// below the grain — the benchmark's b=4 — neither kernel may build its
// ParallelFor closure, and the per-call table lookup must be free too.
func TestLoweringSingleChunkDoesNotAllocate(t *testing.T) {
	defer SetWorkerBudget(WorkerBudget())
	SetWorkerBudget(2)
	const batch = 4
	for _, g := range []ConvGeom{sq(8, 8, 8, 3, 1, 1), sq(8, 8, 8, 3, 2, 1)} {
		x := make([]float32, batch*g.InVol())
		col := make([]float32, g.ColRows()*batch*g.ColCols())
		if parSplits(batch, LoweringFor(g).batchGrain()) {
			t.Fatalf("%+v: batch %d splits; the test needs a single-chunk call", g, batch)
		}
		if a := testing.AllocsPerRun(50, func() {
			Im2colBatch(g, batch, x, col, true)
			Col2imBatch(g, batch, col, x)
		}); a != 0 {
			t.Fatalf("%+v: %v allocs per single-chunk Im2colBatch+Col2imBatch, want 0", g, a)
		}
	}
}

// guardedCopy places src in guarded memory (guard_linux_test.go), against
// the front or the back inaccessible page.
func guardedCopy(t *testing.T, src []float32, front bool) []float32 {
	g := guarded(t, len(src), front)
	copy(g, src)
	return g
}

// TestLoweringZGuarded pins the AVX-512 lowering kernels to the textbook
// lowering with every buffer they touch ending — and, in a second pass,
// starting — at an inaccessible page, so a lane the opmask tables should
// have excluded faults instead of quietly reading a neighbour: tap 0 of a
// padded geometry points before the first plane and the last tap past the
// last one. Planes of 4 to 144 positions (one, four and nine blocks a
// period, runs shorter than a block), 1×1 to 5×5 kernels, the strided
// geometries' gather kernels, batches that leave every tail length, both
// plane layouts. A no-op on hosts without AVX-512. Mutation-checked: an
// unmasked tail block in any of the four kernels faults here, and a tap
// order swap in either col2im fails the comparison.
func TestLoweringZGuarded(t *testing.T) {
	if !zActive() {
		t.Skip("AVX-512 kernels unavailable")
	}
	r := rand.New(rand.NewSource(43))
	geoms := []ConvGeom{
		sq(3, 2, 2, 3, 1, 1), sq(2, 4, 4, 3, 1, 1), sq(2, 6, 6, 3, 1, 1), sq(3, 8, 8, 3, 1, 1), sq(1, 12, 12, 3, 1, 1),
		sq(2, 8, 8, 1, 1, 0), sq(2, 4, 4, 5, 1, 2), sq(2, 7, 9, 3, 1, 1),
		sq(3, 8, 8, 3, 2, 1), sq(2, 4, 4, 3, 2, 1), sq(2, 12, 12, 3, 2, 1), sq(2, 8, 8, 1, 2, 0), sq(2, 7, 9, 3, 2, 1), sq(2, 7, 9, 1, 2, 0), sq(2, 9, 9, 3, 1, 0),
	}
	for _, g := range geoms {
		l := LoweringFor(g)
		s, rows, inVol, plane := g.ColCols(), g.ColRows(), g.InVol(), g.InH*g.InW
		for _, batch := range []int{1, 2, 4, 5, 8, 16} {
			x := smaFill(r, batch*inVol, 0)
			dcol := smaFill(r, rows*batch*s, 0)
			wantCol := make([]float32, rows*batch*s)
			wantDx := make([]float32, batch*inVol)
			sample, img := make([]float32, rows*s), make([]float32, inVol)
			for n := 0; n < batch; n++ {
				im2colTextbook(g, x[n*inVol:(n+1)*inVol], sample)
				for row := 0; row < rows; row++ {
					copy(wantCol[row*batch*s+n*s:][:s], sample[row*s:][:s])
					copy(sample[row*s:][:s], dcol[row*batch*s+n*s:][:s])
				}
				col2imTextbook(g, sample, img)
				copy(wantDx[n*inVol:], img)
			}
			for _, front := range []bool{false, true} {
				name := fmt.Sprintf("%+v batch=%d front=%v", g, batch, front)
				col := guardedCopy(t, nanFill(len(wantCol)), front)
				l.Im2colBatch(batch, guardedCopy(t, x, front), inVol, plane, col)
				elemBitsEqual(t, "Im2colBatch "+name, len(col), col, wantCol)
				dx := guardedCopy(t, nanFill(len(wantDx)), front)
				l.Col2imBatch(batch, guardedCopy(t, dcol, front), dx, inVol, plane)
				smaBitsEqual(t, "Col2imBatch "+name, dx, wantDx)

				col = guardedCopy(t, nanFill(len(wantCol)), front)
				l.Im2colBatch(batch, guardedCopy(t, channelMajor(x, batch, g.InC, plane, 0), front), plane, batch*plane, col)
				elemBitsEqual(t, "Im2colBatch channel-major "+name, len(col), col, wantCol)
				dx = guardedCopy(t, nanFill(len(wantDx)), front)
				l.Col2imBatch(batch, guardedCopy(t, dcol, front), dx, plane, batch*plane)
				smaBitsEqual(t, "Col2imBatch channel-major "+name, sampleMajor(dx, batch, g.InC, plane), wantDx)
			}
		}
	}
}

// TestLoweringZTables checks the periodic opmask and gather tables against
// the tables they are derived from, over two periods of positions.
func TestLoweringZTables(t *testing.T) {
	for _, g := range loweringGeoms {
		l := newLowering(g)
		taps, z := g.KH*g.KW, &l.z
		if l.shift != nil {
			if z.fwdPeriod*16%l.plane != 0 || z.adjPeriod != z.fwdPeriod || len(z.fwd) != z.fwdPeriod*taps {
				t.Fatalf("%+v: period %d blocks for a plane of %d", g, z.fwdPeriod, l.plane)
			}
			for j := 0; j < 2*z.fwdPeriod*16; j++ {
				b, lane, p := j/16%z.fwdPeriod, j%16, j%l.plane
				for tap := 0; tap < taps; tap++ {
					if got, want := z.fwd[b*taps+tap]>>lane&1 != 0, l.fwdMask[tap*l.blocks*8+p] != 0; got != want {
						t.Fatalf("%+v tap %d position %d: forward opmask %v, want %v", g, tap, j, got, want)
					}
					if got, want := z.adj[b*taps+tap]>>lane&1 != 0, l.adjMask[(p/8*taps+tap)*8+p%8] != 0; got != want {
						t.Fatalf("%+v tap %d position %d: adjoint opmask %v, want %v", g, tap, j, got, want)
					}
				}
			}
			continue
		}
		for tap := 0; tap < taps; tap++ {
			for j := 0; j < z.fwdPeriod*16; j++ { // column position j reads input position …
				want := l.src[tap*l.s+j%l.s]
				if want >= 0 {
					want += int32(j / l.s * l.plane)
				}
				got := z.fwdIdx[(tap*z.fwdPeriod+j/16)*16+j%16]
				if got != want {
					t.Fatalf("%+v tap %d column %d: gathers %d, want %d", g, tap, j, got, want)
				}
				// … and that input position is gathered back from column j.
				if got >= 0 && int(got) < z.adjPeriod*16 {
					if back := z.adjIdx[(int(got)/16*taps+tap)*16+int(got)%16]; int(back) != j {
						t.Fatalf("%+v tap %d: input %d gathers column %d, want %d", g, tap, got, back, j)
					}
				}
			}
		}
		if z.fwdStep*l.s != z.fwdPeriod*16*l.plane || z.adjStep*l.plane != z.adjPeriod*16*l.s {
			t.Fatalf("%+v: period steps %d/%d do not span whole samples", g, z.fwdStep, z.adjStep)
		}
	}
}

// TestGemmConvMatchesIm2colGemm pins the column-free forward product to the
// one it replaces — Im2colBatch then GemmEpi over the column matrix — bit for
// bit: every same-grid geometry of the oracle list, OutC 1…17 (row bands of
// 8 and a remainder), batches that leave a partial last block, both plane
// layouts, with and without an epilogue, serial and split across workers,
// x between two inaccessible pages and dense in NaN, ±Inf, −0 and
// denormals. A no-op on hosts without AVX-512. Mutation-checked: dropping the
// tail's column mask from the tap's opmask faults or fails it.
func TestGemmConvMatchesIm2colGemm(t *testing.T) {
	if !zActive() {
		t.Skip("AVX-512 kernels unavailable")
	}
	defer SetWorkerBudget(WorkerBudget())
	r := rand.New(rand.NewSource(47))
	for _, g := range loweringGeoms {
		if !g.sameGrid() {
			if DirectConv(g, 16) {
				t.Fatalf("%+v: DirectConv on a geometry that is not same-grid", g)
			}
			continue
		}
		for _, outC := range []int{1, 8, 13, 17} {
			g.OutC = outC
			l := LoweringFor(g)
			s, rows, inVol, plane := g.ColCols(), g.ColRows(), g.InVol(), g.InH*g.InW
			for _, batch := range []int{1, 3, 8} {
				ns := batch * s
				if !DirectConv(g, batch) {
					if ns >= 16 {
						t.Fatalf("%+v batch %d: no DirectConv for %d columns", g, batch, ns)
					}
					continue
				}
				w := smaFill(r, outC*rows, 1)
				bias := smaFill(r, outC, 0)
				epi := &Epilogue{Bias: bias, ReLU: batch%2 == 1}
				if batch == 8 {
					epi = nil
				}
				x := smaFill(r, batch*inVol, 0)
				for _, cm := range []bool{false, true} {
					sn, sc, xs := inVol, plane, x
					if cm {
						sn, sc, xs = plane, batch*plane, channelMajor(x, batch, g.InC, plane, 0)
					}
					col := make([]float32, rows*ns)
					l.Im2colBatch(batch, xs, sn, sc, col)
					want := nanFill(outC * ns)
					GemmEpi(1, w, outC, rows, col, ns, 0, want, epi)
					for _, workers := range []int{1, 3} {
						SetWorkerBudget(workers)
						for _, front := range []bool{false, true} {
							got := nanFill(outC * ns)
							l.GemmConv(w, batch, guardedCopy(t, xs, front), sn, sc, got, epi)
							smaBitsEqual(t, fmt.Sprintf("GemmConv %+v batch=%d cm=%v workers=%d front=%v", g, batch, cm, workers, front), got, want)
						}
					}
				}
			}
		}
	}
}
