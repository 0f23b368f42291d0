package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX-512 tile's oracle tests. They run the dispatchers with the ZMM
// kernels on against the Go kernels, and are no-ops on hosts without AVX-512
// (or under CROSSBOW_NOAVX512/CROSSBOW_NOSIMD).

const tileSentinel = 0x7fc0beef // a NaN no arithmetic here produces

func sentinelFill(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = math.Float32frombits(tileSentinel)
	}
	return s
}

// TestGemmTileZOracle pins gemmTileZ's direct entry (the training GEMMs) to
// the Go tile kernel over every row count of a band and its successor, every
// column count across two blocks and a tail, k from one step to the deepest
// conv's, accumulators from +0 and preloaded, NN and TA strides, operands at
// unaligned bases and dense in NaN, ±Inf, −0 and denormals. A NaN may carry
// any payload (DESIGN.md §17); everything else is bit for bit. A, B and C
// end at an inaccessible page, so a lane read outside its mask faults, and
// C's row tails hold a sentinel, so a lane stored outside it shows.
// Mutation-checked: VFMADD231PS for MUL+ADD, a descending k walk and an
// unmasked tail load or store each fail it.
func TestGemmTileZOracle(t *testing.T) {
	if !zActive() {
		t.Skip("AVX-512 kernels unavailable")
	}
	r := rand.New(rand.NewSource(73))
	ga, gb, gc := guarded(t, 17*288, false), guarded(t, 288*33, false), guarded(t, 17*36, false)
	for _, kb := range []int{1, 2, 8, 9, 27, 72, 288} {
		for m := 1; m <= 17; m++ {
			if m > 9 && m < 16 {
				continue
			}
			for n := 1; n <= 33; n++ {
				for _, ta := range []bool{false, true} {
					zero := (m+n)%2 == 0
					ars, acs := kb, 1
					if ta {
						ars, acs = 1, m
					}
					a, b := ga[len(ga)-m*kb:], gb[len(gb)-kb*n:]
					copy(a, smaFill(r, m*kb, 0))
					copy(b, smaFill(r, kb*n, 0))
					ldc := n + 3
					c0 := sentinelFill((m-1)*ldc + n)
					for i := 0; i < m; i++ {
						copy(c0[i*ldc:i*ldc+n], smaFill(r, n, 0))
					}
					got, want := gc[len(gc)-len(c0):], append([]float32(nil), c0...)
					copy(got, c0)
					gemmDirect(kb, a, ars, acs, b, n, got, ldc, m, n, zero)
					gemmDirectGo(kb, a, ars, acs, b, n, want, ldc, m, n, zero)
					smaBitsEqual(t, fmt.Sprintf("gemmDirect %dx%dx%d ta=%v zero=%v", m, kb, n, ta, zero), got, want)
				}
			}
		}
	}
}

// TestGemmTileZPanelOracle pins the packed drivers' entry — an interleaved A
// panel, B a packed panel or the matrix itself, preload or GemmTB's
// C += alpha·Σ — to the definition, element by element, B and C ending at an
// inaccessible page. Mutation-checked: an FMA for the store's alpha·acc + C
// and an unmasked read of C fail it.
func TestGemmTileZPanelOracle(t *testing.T) {
	if !zActive() {
		t.Skip("AVX-512 kernels unavailable")
	}
	r := rand.New(rand.NewSource(79))
	gb, gc := guarded(t, 72*(gemmMaxNR+5), false), guarded(t, gemmMaxMR*(gemmMaxNR+2), false)
	for _, kb := range []int{1, 2, 9, 72} {
		for rows := 1; rows <= gemmMaxMR; rows++ {
			for cols := 1; cols <= gemmMaxNR; cols++ {
				for _, preload := range []bool{true, false} {
					ldb := gemmMaxNR
					if preload && cols%2 == 0 {
						ldb = cols + 5 // direct-B
					}
					ap := smaFill(r, kb*gemmMaxMR, 1)
					b := gb[len(gb)-(kb-1)*ldb-cols:]
					copy(b, smaFill(r, len(b), 0))
					alpha := float32(0.75)
					ldc := cols + 2
					c0 := sentinelFill((rows-1)*ldc + cols)
					for i := 0; i < rows; i++ {
						copy(c0[i*ldc:i*ldc+cols], smaFill(r, cols, 0))
					}
					got, want := gc[len(gc)-len(c0):], append([]float32(nil), c0...)
					copy(got, c0)
					gemmPanelTile(kb, ap, b, ldb, got, ldc, rows, cols, alpha, preload)
					for i := 0; i < rows; i++ {
						for j := 0; j < cols; j++ {
							var acc float32
							if preload {
								acc = want[i*ldc+j]
							}
							for p := 0; p < kb; p++ {
								acc += ap[p*gemmMaxMR+i] * b[p*ldb+j]
							}
							if preload {
								want[i*ldc+j] = acc
							} else {
								want[i*ldc+j] += alpha * acc
							}
						}
					}
					smaBitsEqual(t, fmt.Sprintf("gemmPanelTile %dx%dx%d preload=%v ldb=%d", rows, kb, cols, preload, ldb), got, want)
				}
			}
		}
	}
}
