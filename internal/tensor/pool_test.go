package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// poolFill draws from few enough values that most windows hold a tie, a NaN
// or an infinity somewhere: the cases the rule of pool.go is about.
func poolFill(r *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch r.Intn(3) {
		case 0:
			s[i] = elemEdgeValues[r.Intn(len(elemEdgeValues))]
		case 1:
			s[i] = float32(r.Intn(3) - 1)
		default:
			s[i] = float32(r.NormFloat64())
		}
	}
	return s
}

// TestMaxPoolLevelsAgree pins the 2×2 kernels of both register widths to
// the Go loop — which nn.TestMaxPoolMatchesReference pins to the branchy
// loop it replaced — on every byte of y and arg: planes from 2×2 to
// 35×37 (every tail length at both widths, odd sizes whose last row and
// column belong to no window), plane ranges that start past plane 0, and a
// forward without arg. Every buffer ends — and in a second pass starts — at
// an inaccessible page and the outputs start as NaN, so a lane outside its
// mask faults and an element left unwritten shows. The Go loop itself is
// checked against a window-by-window restatement of the rule at k = 1, 2
// and 3, and MaxPoolBwd against the gradient that rule routes.
func TestMaxPoolLevelsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type level struct {
		name string
		wide bool
	}
	var levels []level
	if elemActive() {
		levels = append(levels, level{"avx2", false})
	}
	if zActive() {
		levels = append(levels, level{"avx512", true})
	}
	sizes := [][2]int{{2, 2}, {3, 3}, {4, 4}, {6, 6}, {7, 7}, {8, 8}, {12, 12}, {5, 16}, {4, 17}, {3, 18}, {2, 19}, {9, 31}, {6, 32}, {3, 33}, {4, 34}, {35, 37}, {2, 66}, {3, 70}}
	for _, hw := range sizes {
		h, w := hw[0], hw[1]
		oh, ow := h/2, w/2
		for _, planes := range []int{1, 3} {
			for lo := 0; lo < planes; lo += 2 {
				name := fmt.Sprintf("%dx%d planes [%d,%d)", h, w, lo, planes)
				x, dy := poolFill(r, planes*h*w), poolFill(r, planes*oh*ow)
				wantY, wantArg := nanFill(len(dy)), make([]int32, len(dy))
				func() {
					defer setGemmASM(setGemmASM(false))
					MaxPoolFwd(wantY, wantArg, x, lo, planes, h, w, 2)
				}()
				checkPoolRule(t, name, wantY, wantArg, x, lo, planes, h, w, 2)
				// The exported entry points at whatever level is active.
				y, arg, dx := nanFill(len(dy)), make([]int32, len(dy)), nanFill(len(x))
				MaxPoolFwd(y, arg, x, lo, planes, h, w, 2)
				MaxPoolBwd(dx, dy, arg, lo, planes, h, w, 2)
				bitsEqual(t, name+" MaxPoolFwd y", y[lo*oh*ow:], wantY[lo*oh*ow:])
				wantDx := make([]float32, len(x))
				for o := lo * oh * ow; o < len(dy); o++ {
					wantDx[wantArg[o]] = 0 + dy[o]
				}
				bitsEqual(t, name+" MaxPoolBwd dx", dx[lo*h*w:], wantDx[lo*h*w:])
				for _, lv := range levels {
					for _, front := range []bool{false, true} {
						at := fmt.Sprintf("%s %s front=%v", name, lv.name, front)
						y, arg := guardedCopy(t, nanFill(len(dy)), front), AsInt32(guardedCopy(t, nanFill(len(dy)), front))
						maxPool2Call(lv.wide, y, arg, guardedCopy(t, x, front), lo, planes, h, w)
						bitsEqual(t, at+" y", y[lo*oh*ow:], wantY[lo*oh*ow:])
						for i := lo * oh * ow; i < len(arg); i++ {
							if arg[i] != wantArg[i] {
								t.Fatalf("%s arg[%d] = %d, want %d", at, i, arg[i], wantArg[i])
							}
						}
						y = guardedCopy(t, nanFill(len(dy)), front)
						maxPool2Call(lv.wide, y, nil, guardedCopy(t, x, front), lo, planes, h, w)
						bitsEqual(t, at+" y without arg", y[lo*oh*ow:], wantY[lo*oh*ow:])
					}
				}
			}
		}
	}
	for _, k := range []int{1, 3} {
		x := poolFill(r, 4*7*8)
		y, arg := nanFill(4*(7/k)*(8/k)), make([]int32, 4*(7/k)*(8/k))
		MaxPoolFwd(y, arg, x, 1, 4, 7, 8, k)
		checkPoolRule(t, fmt.Sprintf("k=%d", k), y, arg, x, 1, 4, 7, 8, k)
	}
}

// checkPoolRule restates the rule the way the loop these kernels replaced
// did — a branch per element — and demands its winner, by index and bits.
func checkPoolRule(t *testing.T, name string, y []float32, arg []int32, x []float32, lo, hi, h, w, k int) {
	t.Helper()
	oh, ow := h/k, w/k
	for q := lo; q < hi; q++ {
		for r := 0; r < oh; r++ {
			for c := 0; c < ow; c++ {
				o := (q*oh+r)*ow + c
				first := q*h*w + r*k*w + c*k
				want := first
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < k; kw++ {
						if p := first + kh*w + kw; x[p] > x[want] {
							want = p
						}
					}
				}
				if int(arg[o]) != want || math.Float32bits(y[o]) != math.Float32bits(x[want]) {
					t.Fatalf("%s: output %d = %v at %d, want %v at %d", name, o, y[o], arg[o], x[want], want)
				}
			}
		}
	}
}
