package tensor

import "sync"

// Fast-mode blocked GEMM driver (DESIGN.md §14). Same cache-blocking
// scheme as gemmBlocked but built around the 8×8 FMA3 micro-kernels: FMA
// halves the arithmetic ops per element, so the tile doubles its rows to
// keep eight independent accumulator chains in flight. All three kinds use
// preload semantics here (beta applied up front, alpha folded into the
// packed A panel, C preloaded into the accumulators): per-element
// accumulation stays ascending-k in a single float32 lane — deterministic
// run-to-run and independent of the worker count — but the fused
// multiply-add rounds differently from the scalar oracle, within the
// standard forward-error bound asserted by fast_test.go. gemmDispatch only
// routes here while fmaActive(); otherwise Fast mode runs the bit-pinned
// deterministic driver.

const (
	fmaMR  = 8  // fast micro-kernel tile rows
	fmaNR  = 8  // fast micro-kernel tile cols
	fmaNRZ = 16 // AVX-512 tile cols (direct-B path only)
)

type fmaBufs struct {
	a []float32
	b []float32
}

var fmaPool = sync.Pool{New: func() any {
	return &fmaBufs{
		a: make([]float32, (gemmMC+fmaMR)*gemmKC),
		b: make([]float32, (gemmNC+fmaNR)*gemmKC),
	}
}}

func gemmFast(kind gemmKind, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32, epi *Epilogue) {
	scaleC(beta, c[:m*n])
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		if epi != nil {
			applyEpi(epi, c, n, 0, m, 0, n)
		}
		return
	}
	if Parallelism() == 1 {
		gemmFastBand(kind, alpha, a, m, k, b, n, c, 0, m, 0, n, epi)
		return
	}
	if m >= n {
		tiles := (m + fmaMR - 1) / fmaMR
		grain := 1 + parGrainFlops/(2*k*n*fmaMR)
		ParallelFor(tiles, grain, func(lo, hi int) {
			gemmFastBand(kind, alpha, a, m, k, b, n, c, lo*fmaMR, min(hi*fmaMR, m), 0, n, epi)
		})
		return
	}
	tiles := (n + fmaNR - 1) / fmaNR
	grain := 1 + parGrainFlops/(2*k*m*fmaNR)
	ParallelFor(tiles, grain, func(lo, hi int) {
		gemmFastBand(kind, alpha, a, m, k, b, n, c, 0, m, lo*fmaNR, min(hi*fmaNR, n), epi)
	})
}

// gemmFastBand runs the FMA blocked kernel over the output band
// C[rowLo:rowHi, colLo:colHi]. beta has already been applied.
func gemmFastBand(kind gemmKind, alpha float32, a []float32, m, k int, b []float32, n int, c []float32, rowLo, rowHi, colLo, colHi int, epi *Epilogue) {
	bufs := fmaPool.Get().(*fmaBufs)
	defer fmaPool.Put(bufs)
	// The A panel is always packed (the 8-deep broadcast column wants
	// contiguity and alpha folded in); B streams from place when it is
	// L2-resident row-major, like the deterministic driver's direct-B mode.
	directB := kind != gemmTB && k*n <= gemmDirectBMax
	zWide := fmaZActive()
	for jc := colLo; jc < colHi; jc += gemmNC {
		nb := min(gemmNC, colHi-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kb := min(gemmKC, k-pc)
			if !directB {
				packB(kind, bufs.b, b, k, n, pc, kb, jc, nb, fmaNR)
			}
			for ic := rowLo; ic < rowHi; ic += gemmMC {
				mb := min(gemmMC, rowHi-ic)
				packAFast(kind, bufs.a, a, m, k, ic, mb, pc, kb, alpha)
				for i := 0; i < mb; i += fmaMR {
					rows := min(fmaMR, mb-i)
					ap := bufs.a[i*kb : i*kb+kb*fmaMR]
					if directB {
						// The ZMM kernel only widens the tile; it runs the
						// same per-element FMA chain, so mixing 16- and
						// 8-wide tiles never changes bits.
						for j := 0; j < nb; {
							cols := nb - j
							cp := c[(ic+i)*n+jc+j:]
							bs := b[pc*n+jc+j:]
							switch {
							case rows == fmaMR && cols >= fmaNRZ && zWide:
								gemmMicroFMAZ(kb, ap, bs, n, cp, n)
								j += fmaNRZ
							case rows == fmaMR && cols >= fmaNR:
								gemmMicroFMABS(kb, ap, bs, n, cp, n)
								j += fmaNR
							default:
								cw := min(cols, fmaNR)
								microEdgeFast(kb, ap, nil, bs, n, cp, n, rows, cw)
								j += cw
							}
						}
						continue
					}
					for j := 0; j < nb; j += fmaNR {
						cols := min(fmaNR, nb-j)
						cp := c[(ic+i)*n+jc+j:]
						bp := bufs.b[j*kb : j*kb+kb*fmaNR]
						if rows == fmaMR && cols == fmaNR {
							gemmMicroFMAPack(kb, ap, bp, cp, n)
						} else {
							microEdgeFast(kb, ap, bp, nil, 0, cp, n, rows, cols)
						}
					}
				}
			}
		}
		if epi != nil {
			applyEpi(epi, c, n, rowLo, rowHi, jc, jc+nb)
		}
	}
}

// packAFast packs rows [i0,i0+mb) × cols [p0,p0+kb) of logical A into
// fmaMR-interleaved tiles, folding alpha in and zero-padding partial tiles.
func packAFast(kind gemmKind, dst, a []float32, m, k, i0, mb, p0, kb int, alpha float32) {
	for i := 0; i < mb; i += fmaMR {
		rows := min(fmaMR, mb-i)
		d := dst[i*kb : i*kb+kb*fmaMR]
		if kind == gemmTA {
			// A stored k×m: row p of storage holds logical column p, so a
			// full tile is a straight scaled copy of 8 contiguous floats.
			if rows == fmaMR {
				for p := 0; p < kb; p++ {
					src := a[(p0+p)*m+i0+i:]
					dd := d[p*fmaMR : p*fmaMR+fmaMR]
					dd[0], dd[1] = alpha*src[0], alpha*src[1]
					dd[2], dd[3] = alpha*src[2], alpha*src[3]
					dd[4], dd[5] = alpha*src[4], alpha*src[5]
					dd[6], dd[7] = alpha*src[6], alpha*src[7]
				}
				continue
			}
			for p := 0; p < kb; p++ {
				src := a[(p0+p)*m+i0+i:]
				x := p * fmaMR
				for r := 0; r < fmaMR; r++ {
					if r < rows {
						d[x+r] = alpha * src[r]
					} else {
						d[x+r] = 0
					}
				}
			}
			continue
		}
		// A row-major m×k (gemmNN and gemmTB): full tiles transpose all
		// eight source rows in one pass. The AVX2 8×8 transpose covers
		// kb&^7 columns (bit-identical to the scalar pack — the alpha
		// multiply is the same elementwise IEEE operation); the scalar
		// loop finishes the remainder.
		if rows == fmaMR {
			done := packATrASM(d, a, (i0+i)*k+p0, k, kb, alpha)
			if done == kb {
				continue
			}
			s0 := a[(i0+i)*k+p0+done:]
			s1 := a[(i0+i+1)*k+p0+done:]
			s2 := a[(i0+i+2)*k+p0+done:]
			s3 := a[(i0+i+3)*k+p0+done:]
			s4 := a[(i0+i+4)*k+p0+done:]
			s5 := a[(i0+i+5)*k+p0+done:]
			s6 := a[(i0+i+6)*k+p0+done:]
			s7 := a[(i0+i+7)*k+p0+done:]
			rest := d[done*fmaMR:]
			if alpha == 1 {
				for p := 0; p < kb-done; p++ {
					dd := rest[p*fmaMR : p*fmaMR+fmaMR]
					dd[0], dd[1], dd[2], dd[3] = s0[p], s1[p], s2[p], s3[p]
					dd[4], dd[5], dd[6], dd[7] = s4[p], s5[p], s6[p], s7[p]
				}
			} else {
				for p := 0; p < kb-done; p++ {
					dd := rest[p*fmaMR : p*fmaMR+fmaMR]
					dd[0], dd[1] = alpha*s0[p], alpha*s1[p]
					dd[2], dd[3] = alpha*s2[p], alpha*s3[p]
					dd[4], dd[5] = alpha*s4[p], alpha*s5[p]
					dd[6], dd[7] = alpha*s6[p], alpha*s7[p]
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
			for p := 0; p < kb; p++ {
				d[x] = alpha * src[p]
				x += fmaMR
			}
		}
	}
}

// microEdgeFast is the Go edge kernel for partial fast-mode tiles: ap is
// fmaMR-interleaved; B is either a packed NR-interleaved panel (bp) or
// row-major rows at stride ldb (bs). Plain MUL+ADD — edge elements round
// like the deterministic kernels, interior ones like FMA; both are inside
// the fast-mode error bound.
func microEdgeFast(kb int, ap, bp, bs []float32, ldb int, c []float32, ldc, rows, cols int) {
	var acc [fmaMR][fmaNR]float32
	for r := 0; r < rows; r++ {
		crow := c[r*ldc:]
		for q := 0; q < cols; q++ {
			acc[r][q] = crow[q]
		}
	}
	for p := 0; p < kb; p++ {
		var brow []float32
		if bp != nil {
			brow = bp[p*fmaNR : p*fmaNR+cols]
		} else {
			brow = bs[p*ldb : p*ldb+cols]
		}
		av := ap[p*fmaMR : p*fmaMR+rows]
		for r, ar := range av {
			arow := &acc[r]
			for q, bv := range brow {
				arow[q] += ar * bv
			}
		}
	}
	for r := 0; r < rows; r++ {
		crow := c[r*ldc:]
		for q := 0; q < cols; q++ {
			crow[q] = acc[r][q]
		}
	}
}
