//go:build amd64

package tensor

// AVX2 plane-shift kernels for same-grid conv lowering (lowering.go). Each
// call handles one sample: x/dx point at the sample's first input plane, col
// at row 0 of the sample's column block; sc (the stride between the sample's
// channel planes) and ld are in elements. Tap 0
// of a padded geometry reads from before the plane, so the shifted addresses
// are formed inside the assembly, where they are never materialised as Go
// pointers; masked-out VMASKMOVPS lanes do not touch memory.

//go:noescape
func im2colShiftAVX2(x, col *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int)

//go:noescape
func col2imShiftAVX2(col, dx *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int)
