//go:build !amd64

package tensor

// Non-amd64 stub: max-pooling runs the Go loops of pool.go.

func maxPool2ASM(y []float32, arg []int32, x []float32, lo, hi, h, w int) bool {
	return false
}

func maxPool2Call(wide bool, y []float32, arg []int32, x []float32, lo, hi, h, w int) {
	panic("tensor: maxPool2Call without assembly")
}
