package tensor

import "sync"

// Blocked, register-tiled GEMM. The three public kernels (Gemm, GemmTA,
// GemmTB) share one cache-blocked driver: operands are packed into
// contiguous panels (B in NR-interleaved columns, A in MR-interleaved rows,
// transposition absorbed by the packers) and a micro-kernel accumulates the
// output tile in registers — 8×16 on AVX-512, 4×8 on AVX2 and in Go
// (gemmTile; gemm_kernel_amd64.go has the ISA matrix). The Go level is one
// kernel, gemmTileGo, for every driver and edge: it reads A at element
// strides, so a packed panel and a matrix read in place differ only in the
// strides passed. Work is fanned out
// over the shared bounded worker pool (parallel.go) by partitioning the
// output into disjoint row or column bands.
//
// Determinism contract (verified by blocked_test.go against the textbook
// loops of gemm_ref_test.go — gemmRef, gemmTARef, gemmTBRef):
//   - Every output element is accumulated in strictly ascending-p order with
//     a float32 accumulator, independent of tile position, panel splits and
//     worker count — results are bit-identical at any parallelism level.
//   - Gemm and GemmTA preload the accumulator from C (beta applied up
//     front), reproducing the reference loops' association exactly: they
//     are bit-identical to gemmRef/gemmTARef for all inputs.
//   - beta == 0 is an entry of its own: C is never read and never cleared in
//     a separate pass. The first k panel's accumulators start at +0 — the
//     value the zero pass would have stored and the preload read back — so
//     the bits are those of scaleC + preload, and whatever C held (NaN
//     included) is ignored. GemmTB's first-panel store stays +0 + alpha·Σ,
//     which differs from alpha·Σ exactly when that product is −0.
//   - GemmTB applies alpha once per k-panel (c += alpha*Σ). It matches
//     gemmTBRef bit-for-bit while k ≤ gemmKC (every shape the scaled models
//     produce); for larger k the per-panel regrouping can differ from the
//     single-sum reference in the last bits, bounded by standard
//     forward-error analysis. See DESIGN.md §8.

const (
	gemmMR    = 4   // Go and AVX2 tile rows
	gemmNR    = 8   // Go and AVX2 tile cols (one YMM vector)
	gemmMaxMR = 8   // the tallest and widest tile of any ISA level (AVX-512's
	gemmMaxNR = 16  // 8×16, one ZMM vector a row): they size the panel buffers
	gemmKC    = 256 // k panel: packed A/B panel depth
	gemmMC    = 128 // m panel: rows of A packed at once
	gemmNC    = 512 // n panel: cols of B packed at once

	// parGrainFlops is roughly how many FLOPs one parallel chunk should
	// carry so that goroutine hand-off cost stays negligible.
	parGrainFlops = 1 << 18

	// gemmDirectBMax: when row-major B has at most this many elements
	// (512 KB — L2-resident), the micro-kernel reads its columns straight
	// from B with a strided load instead of packing a panel first. Same
	// per-element order, so bits are unchanged; it just skips the pack
	// traffic, which dominates when m is small (conv layers).
	gemmDirectBMax = 128 << 10
)

type gemmKind int

const (
	gemmNN gemmKind = iota // A m×k, B k×n
	gemmTA                 // A stored k×m (logical Aᵀ), B k×n
	gemmTB                 // A m×k, B stored n×k (logical Bᵀ)
)

// gemmBufs are the per-call packing panels, recycled through a pool so the
// steady-state training loop does not allocate.
type gemmBufs struct {
	a []float32
	b []float32
}

var gemmPool = sync.Pool{New: func() any {
	return &gemmBufs{
		a: make([]float32, (gemmMC+gemmMaxMR)*gemmKC),
		b: make([]float32, (gemmNC+gemmMaxNR)*gemmKC),
	}
}}

// Gemm computes C = alpha*A*B + beta*C for row-major matrices, where A is
// m×k, B is k×n and C is m×n. It is the single hot kernel behind dense
// layers and im2col convolution.
func Gemm(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: Gemm buffer too small")
	}
	gemmBlocked(gemmNN, alpha, a, m, k, b, n, beta, c, nil)
}

// GemmTA computes C = alpha*Aᵀ*B + beta*C where A is stored k×m (so Aᵀ is
// m×k), B is k×n and C is m×n. Used for weight-gradient accumulation.
func GemmTA(alpha float32, a []float32, k, m int, b []float32, n int, beta float32, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmTA buffer too small")
	}
	gemmBlocked(gemmTA, alpha, a, m, k, b, n, beta, c, nil)
}

// GemmTB computes C = alpha*A*Bᵀ + beta*C where A is m×k, B is stored n×k
// (so Bᵀ is k×n) and C is m×n. Used for input-gradient propagation.
func GemmTB(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTB buffer too small")
	}
	gemmBlocked(gemmTB, alpha, a, m, k, b, n, beta, c, nil)
}

// scaleC applies the beta pre-pass shared by all kernels.
func scaleC(beta float32, c []float32) {
	if beta == 1 {
		return
	}
	if beta == 0 {
		for i := range c {
			c[i] = 0
		}
		return
	}
	for i := range c {
		c[i] *= beta
	}
}

func gemmBlocked(kind gemmKind, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32, epi *Epilogue) {
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		scaleC(beta, c[:m*n])
		if epi != nil && m > 0 && n > 0 {
			applyEpi(epi, c, n, 0, m, 0, n)
		}
		return
	}
	zero := beta == 0
	if !zero {
		scaleC(beta, c[:m*n])
	}
	// Partition the larger output dimension into disjoint bands. Each band
	// is an independent GEMM over the same A/B, so bits never depend on the
	// split (see the determinism contract above). Bands are cut in units of
	// the active tile so a seam never leaves a band with a partial tile the
	// whole matrix would not have had. A call the grain leaves in one band
	// (any call at one worker) runs it directly: no band closure, no pool
	// hand-off.
	mr, nr := gemmTile()
	if m >= n {
		tiles := (m + mr - 1) / mr
		grain := 1 + parGrainFlops/(2*k*n*mr)
		if !parSplits(tiles, grain) {
			gemmBand(kind, alpha, a, m, k, b, n, c, 0, m, 0, n, zero, epi)
			return
		}
		ParallelFor(tiles, grain, func(lo, hi int) {
			gemmBand(kind, alpha, a, m, k, b, n, c, lo*mr, min(hi*mr, m), 0, n, zero, epi)
		})
		return
	}
	tiles := (n + nr - 1) / nr
	grain := 1 + parGrainFlops/(2*k*m*nr)
	if !parSplits(tiles, grain) {
		gemmBand(kind, alpha, a, m, k, b, n, c, 0, m, 0, n, zero, epi)
		return
	}
	ParallelFor(tiles, grain, func(lo, hi int) {
		gemmBand(kind, alpha, a, m, k, b, n, c, 0, m, lo*nr, min(hi*nr, n), zero, epi)
	})
}

// gemmBand runs the blocked kernel over the output band C[rowLo:rowHi,
// colLo:colHi]. beta has already been applied, or — zero — is 0 and the
// first k panel starts every accumulator at +0 without reading C. An
// epilogue, when present, runs over each output region as soon as its last
// k panel completes — cache-hot, inside the same worker, once per element.
func gemmBand(kind gemmKind, alpha float32, a []float32, m, k int, b []float32, n int, c []float32, rowLo, rowHi, colLo, colHi int, zero bool, epi *Epilogue) {
	mr, nr := gemmTile()
	// Fully direct mode: for gemmNN/gemmTA with alpha == 1 and L2-resident
	// operands the micro-kernel streams both A (strided broadcasts) and B
	// (strided row loads) from place — no packing at all. This is the
	// steady-state training configuration. Per-element accumulation order
	// is unchanged, so bits match the packed path exactly. The whole band
	// is one call (gemmDirect): the conv input gradient has k = OutC ≤ 32,
	// where a call per tile costs as much as its k steps.
	if kind != gemmTB && alpha == 1 && k*n <= gemmDirectBMax && k*m <= gemmDirectBMax {
		// A element (i, p) strides: gemmNN stores A m×k, gemmTA stores k×m.
		ars, acs := k, 1
		if kind == gemmTA {
			ars, acs = 1, m
		}
		gemmDirect(k, a[rowLo*ars:], ars, acs, b[colLo:], n, c[rowLo*n+colLo:], n, rowHi-rowLo, colHi-colLo, zero)
		if epi != nil {
			applyEpi(epi, c, n, rowLo, rowHi, colLo, colHi)
		}
		return
	}
	// Packed paths from here on: borrow panel buffers from the pool.
	bufs := gemmPool.Get().(*gemmBufs)
	defer gemmPool.Put(bufs)
	// Gemm/GemmTA fold alpha into the packed A panel and preload C into the
	// accumulators; GemmTB keeps the raw product sum and applies alpha at
	// the store, matching its reference association.
	mode, packAlpha := tilePreload, alpha
	if kind == gemmTB {
		mode, packAlpha = tileAccAlpha, 1
	}
	// Direct-B mode (gemmNN/gemmTA with an L2-resident row-major B) skips
	// B panel packing and streams B rows from place.
	directB := kind != gemmTB && k*n <= gemmDirectBMax
	for jc := colLo; jc < colHi; jc += gemmNC {
		nb := min(gemmNC, colHi-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kb := min(gemmKC, k-pc)
			if !directB {
				packB(kind, bufs.b, b, k, n, pc, kb, jc, nb, nr)
			}
			for ic := rowLo; ic < rowHi; ic += gemmMC {
				mb := min(gemmMC, rowHi-ic)
				packA(kind, bufs.a, a, m, k, ic, mb, pc, kb, packAlpha, mr)
				for i := 0; i < mb; i += mr {
					rows := min(mr, mb-i)
					ap := bufs.a[i*kb : i*kb+kb*mr]
					for j := 0; j < nb; j += nr {
						cols := min(nr, nb-j)
						cp := c[(ic+i)*n+jc+j:]
						if zero && pc == 0 {
							// The tile kernels all read C (a preload, or
							// GemmTB's C += alpha·Σ): hand them the +0 tile
							// the beta pass would have, one L1-hot tile at
							// a time instead of a sweep over C.
							zeroTile(cp, n, rows, cols)
						}
						if directB {
							gemmPanelTile(kb, ap, b[pc*n+jc+j:], n, cp, n, rows, cols, mode, alpha)
						} else {
							gemmPanelTile(kb, ap, bufs.b[j*kb:j*kb+kb*nr], nr, cp, n, rows, cols, mode, alpha)
						}
					}
				}
			}
		}
		if epi != nil {
			// All k panels for columns [jc, jc+nb) are done: this slab of
			// the band is final, and still warm.
			applyEpi(epi, c, n, rowLo, rowHi, jc, jc+nb)
		}
	}
}

// zeroTile stores +0 over a rows × cols tile of C.
func zeroTile(c []float32, ldc, rows, cols int) {
	for r := 0; r < rows; r++ {
		clear(c[r*ldc : r*ldc+cols])
	}
}

// Tile modes: how a tile's accumulators start and how they are stored. Every
// level's tile kernel takes them (gemmTileGo, gemmTileZ).
const (
	tilePreload  = iota // start from C, overwrite C
	tileZero            // start from +0, overwrite C (the beta == 0 entry)
	tileAccAlpha        // start from +0, C += alpha·acc (GemmTB's association)
)

// gemmTileGo is the Go tile kernel: one rows × cols output tile, at most
// gemmMR × gemmNR, with A element (r, p) at a[r·ars + p·acs] — a packed
// panel is (1, gemmMR), a matrix read in place its own strides — and B row p
// at b[p·ldb:]. Each element is one float32 accumulator summed in ascending
// p, which every assembly tile reproduces bit for bit. Rows past the tile
// re-read its last A row, so A needs no padding; their sums are never
// stored.
func gemmTileGo(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, rows, cols, mode int, alpha float32) {
	var acc [gemmMR][gemmNR]float32
	if mode == tilePreload {
		for r := 0; r < rows; r++ {
			copy(acc[r][:cols], c[r*ldc:])
		}
	}
	r1, r2, r3 := min(1, rows-1)*ars, min(2, rows-1)*ars, min(3, rows-1)*ars
	for p, ai, bi := 0, 0, 0; p < kb; p, ai, bi = p+1, ai+acs, bi+ldb {
		ap := a[ai:]
		a0, a1, a2, a3 := ap[0], ap[r1], ap[r2], ap[r3]
		for q, bv := range b[bi : bi+cols] {
			acc[0][q] += a0 * bv
			acc[1][q] += a1 * bv
			acc[2][q] += a2 * bv
			acc[3][q] += a3 * bv
		}
	}
	for r := 0; r < rows; r++ {
		crow := c[r*ldc : r*ldc+cols]
		if mode != tileAccAlpha {
			copy(crow, acc[r][:cols])
			continue
		}
		for q := range crow {
			crow[q] += alpha * acc[r][q]
		}
	}
}

// gemmDirectGo is gemmDirect tile by tile in Go: the pure-Go path, the AVX2
// level's edges, and the oracle the AVX-512 tile is tested against.
func gemmDirectGo(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, m, n int, zero bool) {
	mode := tilePreload
	if zero {
		mode = tileZero
	}
	for i := 0; i < m; i += gemmMR {
		for j := 0; j < n; j += gemmNR {
			gemmTileGo(kb, a[i*ars:], ars, acs, b[j:], ldb, c[i*ldc+j:], ldc, min(gemmMR, m-i), min(gemmNR, n-j), mode, 1)
		}
	}
}

// packA packs rows [i0,i0+mb) × cols [p0,p0+kb) of logical A into
// mr-interleaved tiles, folding alpha in (alpha == 1 is the identity) and
// zero-padding partial tiles.
func packA(kind gemmKind, dst, a []float32, m, k, i0, mb, p0, kb int, alpha float32, mr int) {
	for i := 0; i < mb; i += mr {
		rows := min(mr, mb-i)
		d := dst[i*kb : i*kb+kb*mr]
		if rows < mr {
			clear(d)
		}
		if kind == gemmTA {
			// A stored k×m: row p of storage holds logical column p.
			for p := 0; p < kb; p++ {
				dd := d[p*mr : p*mr+rows]
				for r, v := range a[(p0+p)*m+i0+i:][:rows] {
					dd[r] = alpha * v
				}
			}
			continue
		}
		// A row-major m×k (gemmNN and gemmTB).
		for r := 0; r < rows; r++ {
			x := r
			for _, v := range a[(i0+i+r)*k+p0:][:kb] {
				d[x] = alpha * v
				x += mr
			}
		}
	}
}

// packB packs rows [p0,p0+kb) × cols [j0,j0+nb) of logical B into
// nr-interleaved tiles, zero-padding partial tiles.
func packB(kind gemmKind, dst, b []float32, k, n, p0, kb, j0, nb, nr int) {
	for j := 0; j < nb; j += nr {
		cols := min(nr, nb-j)
		d := dst[j*kb : j*kb+kb*nr]
		if cols < nr {
			clear(d)
		}
		if kind == gemmTB {
			// B stored n×k: row j of storage holds logical column j, so a
			// panel is the transpose of `cols` storage rows — eight rows at
			// a time in registers where there are eight (without that the
			// pack, not the kernel, bounds GemmTB on the dense layers'
			// small-m shapes), the rest column by column.
			q := 0
			for ; q+8 <= cols; q += 8 {
				src := b[(j0+j+q)*k+p0:]
				for p := packTr8ASM(d[q:], nr, src, k, kb); p < kb; p++ {
					for r := 0; r < 8; r++ {
						d[p*nr+q+r] = src[r*k+p]
					}
				}
			}
			for ; q < cols; q++ {
				x := q
				for _, v := range b[(j0+j+q)*k+p0:][:kb] {
					d[x] = v
					x += nr
				}
			}
			continue
		}
		// B row-major k×n (gemmNN and gemmTA): `cols` sequential floats per
		// k step.
		for p := 0; p < kb; p++ {
			copy(d[p*nr:p*nr+cols], b[(p0+p)*n+j0+j:])
		}
	}
}
