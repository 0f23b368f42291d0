package tensor

import "math"

// Parameter initialisers. Crossbow initialises every model replica from the
// same scheme and seed so that S-SGD, SMA and EA-SGD start from identical
// weights (paper §5.1: "same model variable initialisation").

// InitHe fills w with He-normal values: N(0, sqrt(2/fanIn)). Standard for
// ReLU networks (ResNet, VGG).
func InitHe(r *RNG, w []float32, fanIn int) {
	if fanIn <= 0 {
		fanIn = 1
	}
	r.NormFloat32s(w, math.Sqrt(2/float64(fanIn)))
}

// InitXavier fills w with Glorot-uniform values: U(-a, a) with
// a = sqrt(6/(fanIn+fanOut)). Used for the LeNet-style dense stacks.
func InitXavier(r *RNG, w []float32, fanIn, fanOut int) {
	if fanIn+fanOut <= 0 {
		fanIn = 1
	}
	a := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = float32((2*r.Float64() - 1) * a)
	}
}

// InitConst fills w with a constant (bias initialisation).
func InitConst(w []float32, v float32) {
	for i := range w {
		w[i] = v
	}
}
