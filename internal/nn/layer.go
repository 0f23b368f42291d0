package nn

import (
	"fmt"

	"crossbow/internal/tensor"
)

// Layer is a differentiable operator with optional parameters.
//
// Forward consumes a batched input tensor and returns the batched output;
// Backward consumes dL/d(output) and returns dL/d(input), accumulating
// parameter gradients into the bound gradient slice. Forward must be called
// before the matching Backward (layers cache the inputs they need). Batched
// tensors are laid out as actShape describes.
type Layer interface {
	// Name identifies the layer for debugging and operator inventories.
	Name() string
	// OutShape returns the per-sample output shape.
	OutShape() []int
	// NumParams returns the layer's parameter count (0 for stateless layers).
	NumParams() int
	// Bind attaches the layer to parameter and gradient storage. Both
	// slices have length NumParams. Stateless layers ignore the call.
	Bind(w, g []float32)
	// InitParams writes initial parameter values into w (length NumParams).
	InitParams(r *tensor.RNG, w []float32)
	// Forward computes the layer output for a batch. train selects
	// training-mode behaviour (batch statistics, dropout).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward computes the input gradient from the output gradient and
	// accumulates parameter gradients into the bound gradient slice.
	Backward(dy *tensor.Tensor) *tensor.Tensor
}

// stateless is embedded by layers without parameters.
type stateless struct{}

func (stateless) NumParams() int                        { return 0 }
func (stateless) Bind(w, g []float32)                   {}
func (stateless) InitParams(r *tensor.RNG, w []float32) {}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// actShape returns the shape of a batched activation inside the layer
// library. There is one layout: a spatial activation is channel-major,
// [C, batch, H, W] — channel c's batch·H·W values are one contiguous row,
// which is what every conv GEMM produces and consumes (OutC × batch·S) and
// what batch-norm reduces over — and a flat one is [batch, V]. NCHW exists
// only at the network input, which the stem convolution reads through its
// lowering's plane strides (Conv2D.netIn); flatten and the global average
// pool, which hand a spatial activation to a dense layer, are where samples
// become rows again.
func actShape(batch int, shape []int) []int {
	if len(shape) == 3 {
		return []int{shape[0], batch, shape[1], shape[2]}
	}
	return append([]int{batch}, shape...)
}

// checkIn panics unless x has the shape want. Allocation-free on the happy
// path: it runs on every layer call of the training hot loop.
func checkIn(name string, x *tensor.Tensor, want []int) {
	if !shapeEq(x.Shape(), want) {
		panic(fmt.Sprintf("nn: %s: input shape %v, want %v", name, x.Shape(), want))
	}
}
