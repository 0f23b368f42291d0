//go:build !linux

package tensor

import "testing"

// guarded is a plain allocation where guard pages are not available.
func guarded(t *testing.T, n int, front bool) []float32 { return make([]float32, n) }
