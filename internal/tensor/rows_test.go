package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Oracles for the channel-row kernels: the loops internal/nn ran over NCHW
// activations before they went channel-major, copied verbatim (batchnorm.go's
// forwardChannels/backwardChannels, Conv2D.Backward's bias sums, stageChunk's
// packT scatter and the gwT→gw add). They read NCHW; the kernels get the
// same values channel-major, so the comparison also pins that a channel's
// (n, i) order is ascending position along its row.

func refBNSums(xd []float32, batch, C, plane int, mean []float32, sum, sq []float64) {
	count := batch * plane
	for c := 0; c < C; c++ {
		var s float64
		for n := 0; n < batch; n++ {
			off := (n*C + c) * plane
			for _, v := range xd[off : off+plane] {
				s += float64(v)
			}
		}
		sum[c] = s
		mean[c] = float32(s / float64(count))
		var q float64
		for n := 0; n < batch; n++ {
			off := (n*C + c) * plane
			for _, v := range xd[off : off+plane] {
				d := float64(v - mean[c])
				q += d * d
			}
		}
		sq[c] = q
	}
}

func refBNNorm(xd, xhat, yd []float32, batch, C, plane int, mean, invStd, gamma, beta []float32) {
	for c := 0; c < C; c++ {
		mean, invStd := mean[c], invStd[c]
		g, bt := gamma[c], beta[c]
		for n := 0; n < batch; n++ {
			off := (n*C + c) * plane
			for i := off; i < off+plane; i++ {
				xh := (xd[i] - mean) * invStd
				xhat[i] = xh
				yd[i] = g*xh + bt
			}
		}
	}
}

func refBNBackward(dyd, xhat, dxd []float32, batch, C, plane int, gamma, invStd []float32, sDy, sDyXhat []float64) {
	count := float32(batch * plane)
	for c := 0; c < C; c++ {
		var sumDy, sumDyXhat float64
		for n := 0; n < batch; n++ {
			off := (n*C + c) * plane
			for i := off; i < off+plane; i++ {
				sumDy += float64(dyd[i])
				sumDyXhat += float64(dyd[i]) * float64(xhat[i])
			}
		}
		sDy[c], sDyXhat[c] = sumDy, sumDyXhat
		g := gamma[c]
		invStd := invStd[c]
		mDy := float32(sumDy) / count
		mDyXhat := float32(sumDyXhat) / count
		for n := 0; n < batch; n++ {
			off := (n*C + c) * plane
			for i := off; i < off+plane; i++ {
				dxd[i] = g * invStd * (dyd[i] - mDy - xhat[i]*mDyXhat)
			}
		}
	}
}

func refBiasGrad(dyd, gb []float32, batch, outC, s int) {
	outVol := outC * s
	for n := 0; n < batch; n++ {
		for oc := 0; oc < outC; oc++ {
			row := dyd[n*outVol+oc*s : n*outVol+oc*s+s]
			var sum float32
			for _, v := range row {
				sum += v
			}
			gb[oc] += sum
		}
	}
}

func refPackT(dyd, packT []float32, batch, outC, s int) {
	outVol := outC * s
	for n := 0; n < batch; n++ {
		for oc := 0; oc < outC; oc++ {
			src := dyd[n*outVol+oc*s : n*outVol+oc*s+s]
			ti := (n*s)*outC + oc
			for i := range src {
				packT[ti] = src[i]
				ti += outC
			}
		}
	}
}

func refGwAdd(gw, gwT []float32, outC, colRows int) {
	for oc := 0; oc < outC; oc++ {
		grow := gw[oc*colRows : (oc+1)*colRows]
		for r := range grow {
			grow[r] += gwT[r*outC+oc]
		}
	}
}

// bits64Equal is smaBitsEqual for float64 sums: identical bit patterns,
// except that a NaN may carry any payload.
func bits64Equal(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: [%d] = %x (%v), want %x (%v)", name, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// channelMajor returns the NCHW batch x as C rows of batch·plane values, at
// an odd offset into its allocation when off is 1.
func channelMajor(x []float32, batch, C, plane, off int) []float32 {
	cm := make([]float32, len(x)+off)[off:]
	SwapOuter(cm, x, batch, C, plane)
	return cm
}

// sampleMajor is the inverse, for comparing a kernel's channel-major output
// with an oracle's NCHW one.
func sampleMajor(cm []float32, batch, C, plane int) []float32 {
	x := make([]float32, len(cm))
	SwapOuter(x, cm, C, batch, plane)
	return x
}

func runRowKernelOracle(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for _, C := range []int{1, 3, 4, 8, 12, 16, 32} {
		for _, l := range []int{1, 4, 16, 64, 255, 256} {
			for _, plane := range []int{1, 4, 64} {
				if l%plane != 0 {
					continue
				}
				batch := l / plane
				// Fills: 0 unit normals; 1 dense in NaN, ±Inf, −0 and
				// denormals; 2 finite with exponents spread over 2^±40, where
				// a float64 sum of float32 terms rounds at almost every
				// addition — on the other two it is mostly exact, or NaN, and
				// so nearly blind to the order of its terms.
				for kind := 0; kind < 3; kind++ {
					name := fmt.Sprintf("C=%d N=%d S=%d kind=%d", C, batch, plane, kind)
					fill := func(n, off int) []float32 {
						if kind == 1 {
							return smaFill(r, n, off)
						}
						s := make([]float32, n+off)[off:]
						for i := range s {
							s[i] = float32(r.NormFloat64())
							if kind == 2 {
								s[i] = float32(math.Ldexp(float64(s[i]), r.Intn(81)-40))
							}
						}
						return s
					}
					off := (C + l) % 2
					x, dy := fill(batch*C*plane, 0), fill(batch*C*plane, 0)
					gamma, beta, invStd := fill(C, off), fill(C, off), fill(C, off)
					xc, dyc := channelMajor(x, batch, C, plane, off), channelMajor(dy, batch, C, plane, 1-off)

					// Forward: sums, squared deviations, normalise.
					mean := make([]float32, C)
					wantSum, wantSq := make([]float64, C), make([]float64, C)
					refBNSums(x, batch, C, plane, mean, wantSum, wantSq)
					gotSum, gotSq := make([]float64, C+1)[1:], make([]float64, C+1)[1:]
					RowSums64(gotSum, xc, C, l)
					bits64Equal(t, "RowSums64 "+name, gotSum, wantSum)
					RowSqDevs64(gotSq, xc, mean, C, l)
					bits64Equal(t, "RowSqDevs64 "+name, gotSq, wantSq)

					wantXhat, wantY := make([]float32, len(x)), make([]float32, len(x))
					refBNNorm(x, wantXhat, wantY, batch, C, plane, mean, invStd, gamma, beta)
					gotXhat, gotY := nanFill(len(x) + 1)[1:], nanFill(len(x))
					for c := 0; c < C; c++ {
						NormRow(gotY[c*l:(c+1)*l], gotXhat[c*l:(c+1)*l], xc[c*l:(c+1)*l], mean[c], invStd[c], gamma[c], beta[c])
					}
					smaBitsEqual(t, "NormRow xhat "+name, sampleMajor(gotXhat, batch, C, plane), wantXhat)
					smaBitsEqual(t, "NormRow y "+name, sampleMajor(gotY, batch, C, plane), wantY)

					// Backward: the two sums, then dX.
					wantDy, wantDyX := make([]float64, C), make([]float64, C)
					wantDx := make([]float32, len(x))
					refBNBackward(dy, wantXhat, wantDx, batch, C, plane, gamma, invStd, wantDy, wantDyX)
					gotDy, gotDyX := make([]float64, C), make([]float64, C+1)[1:]
					RowDots64(gotDy, gotDyX, dyc, gotXhat, C, l)
					bits64Equal(t, "RowDots64 ΣdY "+name, gotDy, wantDy)
					bits64Equal(t, "RowDots64 ΣdY·x̂ "+name, gotDyX, wantDyX)
					gotDx := nanFill(len(x))
					count := float32(l)
					for c := 0; c < C; c++ {
						NormGradRow(gotDx[c*l:(c+1)*l], dyc[c*l:(c+1)*l], gotXhat[c*l:(c+1)*l],
							gamma[c]*invStd[c], float32(gotDy[c])/count, float32(gotDyX[c])/count)
					}
					smaBitsEqual(t, "NormGradRow "+name, sampleMajor(gotDx, batch, C, plane), wantDx)

					// Conv backward: bias sums, dYᵀ, the transposed add.
					gb := fill(C, off)
					wantGb := append([]float32(nil), gb...)
					refBiasGrad(dy, wantGb, batch, C, plane)
					RowSegSums32(gb, dyc, C, batch, plane)
					smaBitsEqual(t, "RowSegSums32 "+name, gb, wantGb)

					wantT, gotT := make([]float32, len(x)), nanFill(len(x) + 1)[1:]
					refPackT(dy, wantT, batch, C, plane)
					Transpose(gotT, dyc, C, l)
					smaBitsEqual(t, "Transpose "+name, gotT, wantT)

					gw := fill(C*l, off)
					wantGw := append([]float32(nil), gw...)
					refGwAdd(wantGw, x, C, l) // x as an l × C gwT
					TransposeAdd(gw, x, l, C)
					smaBitsEqual(t, "TransposeAdd "+name, gw, wantGw)
				}
			}
		}
	}
}

// TestRowKernelOracle: every channel-row kernel ≡ the pre-change NCHW loop,
// bit for bit (NaN-ness per element, payload free), over channel counts
// below, at and beyond a group of eight, row lengths around the four-position
// block, planes of 1, 4 and 64, unaligned bases, and inputs dense in NaN,
// ±Inf, −0 and denormals, or spread over eighty binades. Mutation-checked in
// a scratch copy: a RowSums64 that sums along the row in four lanes, a
// pairwise tree over the four positions of a block, a block walked in
// descending position (each reduction), and RowSqDevs64 subtracting after
// the widening each fail it. An FMA in RowSqDevs64 or RowDots64 cannot: the
// product of two widened float32 values has at most 48 significant bits and
// is exact in float64, so fused and unfused round once, at the same place.
// (In the float32 GEMM row kernel an FMA, or a descending k, fails
// TestGemmBitIdenticalToReference.)
func TestRowKernelOracle(t *testing.T) { runRowKernelOracle(t) }

// TestRowKernelOracleScalarFallback re-runs the oracle with SIMD off: what
// CROSSBOW_NOSIMD=1 and non-amd64 builds execute.
func TestRowKernelOracleScalarFallback(t *testing.T) {
	defer setGemmASM(setGemmASM(false))
	runRowKernelOracle(t)
}

// TestGemmBetaZeroEntry pins the beta == 0 entry of all three GEMM kinds to
// the zero pass + preload it replaced: C full of NaN on entry, shapes with
// edge tiles in both directions, k across a panel boundary, alpha ≠ 1 (the
// packed paths), and operands dense in exact zeros of both signs, so that
// GemmTB's +0 + alpha·Σ is told apart from alpha·Σ where the product is −0.
func TestGemmBetaZeroEntry(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	sparse := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			switch r.Intn(3) {
			case 0:
				s[i] = float32(r.NormFloat64())
			case 1:
				s[i] = float32(math.Copysign(0, -1))
			}
		}
		return s
	}
	run := func() {
		for _, sh := range [][3]int{{1, 1, 1}, {4, 8, 8}, {5, 3, 9}, {8, 72, 33}, {13, 300, 21}, {72, 8, 256}, {27, 16, 20}, {3, 5, 64}} {
			m, k, n := sh[0], sh[1], sh[2]
			for _, alpha := range []float32{1, -1, 0.5} {
				a, at, b, bt := sparse(m*k), sparse(k*m), sparse(k*n), sparse(n*k)
				name := fmt.Sprintf("%dx%dx%d alpha=%v", m, k, n, alpha)
				got, want := nanFill(m*n), nanFill(m*n)
				Gemm(alpha, a, m, k, b, n, 0, got)
				gemmRef(alpha, a, m, k, b, n, 0, want)
				bitsEqual(t, "Gemm "+name, got, want)
				got, want = nanFill(m*n), nanFill(m*n)
				GemmTA(alpha, at, k, m, b, n, 0, got)
				gemmTARef(alpha, at, k, m, b, n, 0, want)
				bitsEqual(t, "GemmTA "+name, got, want)
				if k <= gemmKC { // beyond one panel GemmTB regroups (TestGemmTBReference)
					got, want = nanFill(m*n), nanFill(m*n)
					GemmTB(alpha, a, m, k, bt, n, 0, got)
					gemmTBRef(alpha, a, m, k, bt, n, 0, want)
					bitsEqual(t, "GemmTB "+name, got, want)
				}
			}
		}
	}
	defer SetParallelism(Parallelism())
	for _, workers := range []int{1, 3} {
		SetParallelism(workers)
		run()
		prevZ := setGemmZ(false)
		run()
		setGemmZ(prevZ)
		prev := setGemmASM(false)
		run()
		setGemmASM(prev)
	}
}
