package tensor

import "sync"

// Blocked, register-tiled GEMM. The three public kernels (Gemm, GemmTA,
// GemmTB) share one cache-blocked driver: operands are packed into
// contiguous panels (B in NR-interleaved columns, A in MR-interleaved rows,
// transposition absorbed by the packers) and a 4×8 micro-kernel accumulates
// the output tile in registers. Work is fanned out over the shared bounded
// worker pool (parallel.go) by partitioning the output into disjoint row or
// column bands.
//
// Determinism contract (verified by blocked_test.go):
//   - Every output element is accumulated in strictly ascending-p order with
//     a float32 accumulator, independent of tile position, panel splits and
//     worker count — results are bit-identical at any parallelism level.
//   - Gemm and GemmTA preload the accumulator from C (beta applied up
//     front), reproducing the reference kernels' association exactly: they
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
	gemmMR = 4   // micro-kernel tile rows
	gemmNR = 8   // micro-kernel tile cols (one YMM / two XMM vectors)
	gemmKC = 256 // k panel: packed A/B panel depth
	gemmMC = 128 // m panel: rows of A packed at once
	gemmNC = 512 // n panel: cols of B packed at once

	// parGrainFlops is roughly how many FLOPs one parallel chunk should
	// carry so that goroutine hand-off cost stays negligible.
	parGrainFlops = 1 << 18

	// gemmDirectBMax: when row-major B has at most this many elements
	// (512 KB — L2-resident), the micro-kernel reads its 8 columns straight
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
		a: make([]float32, (gemmMC+gemmMR)*gemmKC),
		b: make([]float32, (gemmNC+gemmNR)*gemmKC),
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
	if Parallelism() == 1 {
		// Serial fast path: no band closure, no pool hand-off.
		gemmBand(kind, alpha, a, m, k, b, n, c, 0, m, 0, n, zero, epi)
		return
	}
	// Partition the larger output dimension into disjoint bands. Each band
	// is an independent GEMM over the same A/B, so bits never depend on the
	// split (see the determinism contract above). Bands are cut in units of
	// whole micro-kernel tiles so seams don't demote interior tiles to the
	// Go edge kernels.
	if m >= n {
		tiles := (m + gemmMR - 1) / gemmMR
		grain := 1 + parGrainFlops/(2*k*n*gemmMR)
		ParallelFor(tiles, grain, func(lo, hi int) {
			gemmBand(kind, alpha, a, m, k, b, n, c, lo*gemmMR, min(hi*gemmMR, m), 0, n, zero, epi)
		})
		return
	}
	tiles := (n + gemmNR - 1) / gemmNR
	grain := 1 + parGrainFlops/(2*k*m*gemmNR)
	ParallelFor(tiles, grain, func(lo, hi int) {
		gemmBand(kind, alpha, a, m, k, b, n, c, 0, m, lo*gemmNR, min(hi*gemmNR, n), zero, epi)
	})
}

// gemmBand runs the blocked kernel over the output band C[rowLo:rowHi,
// colLo:colHi]. beta has already been applied, or — zero — is 0 and the
// first k panel starts every accumulator at +0 without reading C. An
// epilogue, when present, runs over each output region as soon as its last
// k panel completes — cache-hot, inside the same worker, once per element.
func gemmBand(kind gemmKind, alpha float32, a []float32, m, k int, b []float32, n int, c []float32, rowLo, rowHi, colLo, colHi int, zero bool, epi *Epilogue) {
	// Fully direct mode: for gemmNN/gemmTA with alpha == 1 and L2-resident
	// operands the micro-kernel streams both A (strided broadcasts) and B
	// (strided row loads) from place — no packing at all. This is the
	// steady-state training configuration. Per-element accumulation order
	// is unchanged, so bits match the packed path exactly. A full-height
	// row of tiles is one call (gemmRowDir): the conv input gradient has
	// k = OutC ≤ 32, where a call per tile costs as much as its k steps.
	if kind != gemmTB && alpha == 1 && k*n <= gemmDirectBMax && k*m <= gemmDirectBMax {
		// A element (i, p) strides: gemmNN stores A m×k, gemmTA stores k×m.
		ars, acs := k, 1
		if kind == gemmTA {
			ars, acs = 1, m
		}
		full := (colHi - colLo) / gemmNR
		edge := colLo + full*gemmNR
		for i := rowLo; i < rowHi; i += gemmMR {
			rows := min(gemmMR, rowHi-i)
			var as []float32
			if kind == gemmTA {
				as = a[i:]
			} else {
				as = a[i*k:]
			}
			j := colLo
			if rows == gemmMR && full > 0 {
				gemmRowDir(k, as, ars, acs, b[colLo:], n, c[i*n+colLo:], n, full, zero)
				j = edge
			}
			for ; j < colHi; j += gemmNR {
				microEdgeDirect(k, as, ars, acs, b[j:], n, c[i*n+j:], n, rows, min(gemmNR, colHi-j), zero)
			}
		}
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
	preload := kind != gemmTB
	packAlpha := alpha
	storeAlpha := float32(1)
	if kind == gemmTB {
		packAlpha, storeAlpha = 1, alpha
	}
	// Direct-B mode (gemmNN/gemmTA with an L2-resident row-major B) skips
	// B panel packing and streams B rows from place.
	directB := kind != gemmTB && k*n <= gemmDirectBMax
	for jc := colLo; jc < colHi; jc += gemmNC {
		nb := min(gemmNC, colHi-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kb := min(gemmKC, k-pc)
			if !directB {
				packB(kind, bufs.b, b, k, n, pc, kb, jc, nb)
			}
			for ic := rowLo; ic < rowHi; ic += gemmMC {
				mb := min(gemmMC, rowHi-ic)
				packA(kind, bufs.a, a, m, k, ic, mb, pc, kb, packAlpha)
				for i := 0; i < mb; i += gemmMR {
					rows := min(gemmMR, mb-i)
					ap := bufs.a[i*kb : i*kb+kb*gemmMR]
					for j := 0; j < nb; j += gemmNR {
						cols := min(gemmNR, nb-j)
						cp := c[(ic+i)*n+jc+j:]
						if zero && pc == 0 {
							// The tile kernels below all read C (a preload,
							// or GemmTB's C += alpha·Σ): hand them the +0
							// tile the beta pass would have, one L1-hot
							// tile at a time instead of a sweep over C.
							zeroTile(cp, n, rows, cols)
						}
						if directB {
							bs := b[pc*n+jc+j:]
							if rows == gemmMR && cols == gemmNR {
								gemmMicroPreBS(kb, ap, bs, n, cp, n)
							} else {
								microEdgeStridedB(kb, ap, bs, n, cp, n, rows, cols)
							}
							continue
						}
						bp := bufs.b[j*kb : j*kb+kb*gemmNR]
						if rows == gemmMR && cols == gemmNR {
							if preload {
								gemmMicroPre(kb, ap, bp, cp, n)
							} else {
								gemmMicroAcc(kb, ap, bp, cp, n, storeAlpha)
							}
						} else {
							microEdge(kb, ap, bp, cp, n, rows, cols, storeAlpha, preload)
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

// microEdgeDirect is the fully direct tile kernel in Go: A lanes at element
// strides (ars, acs), B rows at stride ldb, alpha == 1; the accumulators
// start at +0 (zero) or preload from C. It also covers partial tiles.
func microEdgeDirect(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, rows, cols int, zero bool) {
	var acc [gemmMR][gemmNR]float32
	if !zero {
		for r := 0; r < rows; r++ {
			crow := c[r*ldc:]
			for q := 0; q < cols; q++ {
				acc[r][q] = crow[q]
			}
		}
	}
	for p := 0; p < kb; p++ {
		var a0, a1, a2, a3 float32
		base := p * acs
		a0 = a[base]
		if rows > 1 {
			a1 = a[base+ars]
		}
		if rows > 2 {
			a2 = a[base+2*ars]
		}
		if rows > 3 {
			a3 = a[base+3*ars]
		}
		brow := b[p*ldb : p*ldb+cols]
		for q, bv := range brow {
			acc[0][q] += a0 * bv
			acc[1][q] += a1 * bv
			acc[2][q] += a2 * bv
			acc[3][q] += a3 * bv
		}
	}
	for r := 0; r < rows; r++ {
		crow := c[r*ldc:]
		for q := 0; q < cols; q++ {
			crow[q] = acc[r][q]
		}
	}
}

// gemmRowDirGo is gemmRowDir tile by tile in Go: the pure-Go path, and the
// oracle the assembly row kernel is tested against.
func gemmRowDirGo(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, tiles int, zero bool) {
	for t := 0; t < tiles; t++ {
		microEdgeDirect(kb, a, ars, acs, b[t*gemmNR:], ldb, c[t*gemmNR:], ldc, gemmMR, gemmNR, zero)
	}
}

// microEdgeStridedB is the direct-B tile kernel (preload semantics, alpha in
// ap) reading B rows at stride ldb; it also covers partial tiles.
func microEdgeStridedB(kb int, ap, b []float32, ldb int, c []float32, ldc, rows, cols int) {
	var acc [gemmMR][gemmNR]float32
	for r := 0; r < rows; r++ {
		crow := c[r*ldc:]
		for q := 0; q < cols; q++ {
			acc[r][q] = crow[q]
		}
	}
	for p := 0; p < kb; p++ {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		ap = ap[gemmMR:]
		brow := b[p*ldb : p*ldb+cols]
		for q, bv := range brow {
			acc[0][q] += a0 * bv
			acc[1][q] += a1 * bv
			acc[2][q] += a2 * bv
			acc[3][q] += a3 * bv
		}
	}
	for r := 0; r < rows; r++ {
		crow := c[r*ldc:]
		for q := 0; q < cols; q++ {
			crow[q] = acc[r][q]
		}
	}
}

// packA packs rows [i0,i0+mb) × cols [p0,p0+kb) of logical A into
// MR-interleaved tiles, folding alpha in and zero-padding partial tiles.
func packA(kind gemmKind, dst, a []float32, m, k, i0, mb, p0, kb int, alpha float32) {
	for i := 0; i < mb; i += gemmMR {
		rows := min(gemmMR, mb-i)
		d := dst[i*kb : i*kb+kb*gemmMR]
		if kind == gemmTA {
			// A stored k×m: row p of storage holds logical column p.
			for p := 0; p < kb; p++ {
				src := a[(p0+p)*m+i0+i:]
				x := p * gemmMR
				for r := 0; r < gemmMR; r++ {
					if r < rows {
						d[x+r] = alpha * src[r]
					} else {
						d[x+r] = 0
					}
				}
			}
			continue
		}
		// A row-major m×k (gemmNN and gemmTB). Full tiles transpose all
		// four source rows in one pass with sequential destination writes;
		// the per-row strided loop below only handles the m%4 edge.
		if rows == gemmMR {
			s0 := a[(i0+i)*k+p0:]
			s1 := a[(i0+i+1)*k+p0:]
			s2 := a[(i0+i+2)*k+p0:]
			s3 := a[(i0+i+3)*k+p0:]
			if alpha == 1 {
				for p := 0; p < kb; p++ {
					dd := d[p*gemmMR : p*gemmMR+gemmMR]
					dd[0], dd[1], dd[2], dd[3] = s0[p], s1[p], s2[p], s3[p]
				}
			} else {
				for p := 0; p < kb; p++ {
					dd := d[p*gemmMR : p*gemmMR+gemmMR]
					dd[0], dd[1] = alpha*s0[p], alpha*s1[p]
					dd[2], dd[3] = alpha*s2[p], alpha*s3[p]
				}
			}
			continue
		}
		for x := range d {
			d[x] = 0
		}
		for r := 0; r < rows; r++ {
			src := a[(i0+i+r)*k+p0:]
			x := r
			if alpha == 1 {
				for p := 0; p < kb; p++ {
					d[x] = src[p]
					x += gemmMR
				}
			} else {
				for p := 0; p < kb; p++ {
					d[x] = alpha * src[p]
					x += gemmMR
				}
			}
		}
	}
}

// packB packs rows [p0,p0+kb) × cols [j0,j0+nb) of logical B into
// NR-interleaved tiles, zero-padding partial tiles.
func packB(kind gemmKind, dst, b []float32, k, n, p0, kb, j0, nb int) {
	for j := 0; j < nb; j += gemmNR {
		cols := min(gemmNR, nb-j)
		d := dst[j*kb : j*kb+kb*gemmNR]
		if kind == gemmTB {
			// B stored n×k: row j of storage holds logical column j. Full
			// tiles transpose eight storage rows in a single pass with
			// sequential destination writes — the per-column strided loop
			// this replaces walked the whole panel once per column and held
			// GemmTB at ~40% of Gemm's throughput on the small-m shapes.
			// Same values, same panel layout, so bits are unchanged.
			if cols == gemmNR {
				s0 := b[(j0+j)*k+p0:]
				s1 := b[(j0+j+1)*k+p0:]
				s2 := b[(j0+j+2)*k+p0:]
				s3 := b[(j0+j+3)*k+p0:]
				s4 := b[(j0+j+4)*k+p0:]
				s5 := b[(j0+j+5)*k+p0:]
				s6 := b[(j0+j+6)*k+p0:]
				s7 := b[(j0+j+7)*k+p0:]
				for p := 0; p < kb; p++ {
					dd := d[p*gemmNR : p*gemmNR+gemmNR]
					dd[0], dd[1], dd[2], dd[3] = s0[p], s1[p], s2[p], s3[p]
					dd[4], dd[5], dd[6], dd[7] = s4[p], s5[p], s6[p], s7[p]
				}
				continue
			}
			for x := range d {
				d[x] = 0
			}
			for q := 0; q < cols; q++ {
				src := b[(j0+j+q)*k+p0:]
				x := q
				for p := 0; p < kb; p++ {
					d[x] = src[p]
					x += gemmNR
				}
			}
			continue
		}
		// B row-major k×n (gemmNN and gemmTA): full tiles copy 8 sequential
		// floats per k step, so the strided-read cost of a column-major
		// traversal is avoided.
		if cols == gemmNR {
			for p := 0; p < kb; p++ {
				src := b[(p0+p)*n+j0+j:]
				src = src[:gemmNR]
				dd := d[p*gemmNR : p*gemmNR+gemmNR]
				dd[0], dd[1], dd[2], dd[3] = src[0], src[1], src[2], src[3]
				dd[4], dd[5], dd[6], dd[7] = src[4], src[5], src[6], src[7]
			}
			continue
		}
		for p := 0; p < kb; p++ {
			src := b[(p0+p)*n+j0+j:]
			x := p * gemmNR
			for q := 0; q < gemmNR; q++ {
				if q < cols {
					d[x+q] = src[q]
				} else {
					d[x+q] = 0
				}
			}
		}
	}
}

// microGeneric computes one (possibly partial) gemmMR×gemmNR output tile in
// pure Go. The packed panels are zero-padded, so every valid element's
// accumulation order is identical to the assembly kernels' (ascending p,
// one float32 accumulator per element) — the pure-Go and SIMD paths are
// bit-identical.
func microGeneric(kb int, ap, bp []float32, c []float32, ldc, rows, cols int, alpha float32, preload bool) {
	var acc [gemmMR][gemmNR]float32
	if preload {
		for r := 0; r < rows; r++ {
			crow := c[r*ldc:]
			for q := 0; q < cols; q++ {
				acc[r][q] = crow[q]
			}
		}
	}
	for p := 0; p < kb; p++ {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b := bp[:gemmNR]
		ap, bp = ap[gemmMR:], bp[gemmNR:]
		for q, bv := range b {
			acc[0][q] += a0 * bv
			acc[1][q] += a1 * bv
			acc[2][q] += a2 * bv
			acc[3][q] += a3 * bv
		}
	}
	for r := 0; r < rows; r++ {
		crow := c[r*ldc:]
		if preload {
			for q := 0; q < cols; q++ {
				crow[q] = acc[r][q]
			}
			continue
		}
		for q := 0; q < cols; q++ {
			crow[q] += alpha * acc[r][q]
		}
	}
}

// microEdge handles partial tiles at the output's right/bottom edges.
func microEdge(kb int, ap, bp []float32, c []float32, ldc, rows, cols int, alpha float32, preload bool) {
	microGeneric(kb, ap, bp, c, ldc, rows, cols, alpha, preload)
}
