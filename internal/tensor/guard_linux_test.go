package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s backed by pages that sit between two
// inaccessible ones, abutting the front guard page (front) or the back one:
// a kernel that touches a lane its mask excludes faults instead of reading a
// neighbour. The mapping is released when the test ends.
func guarded(t *testing.T, n int, front bool) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	data := (n*4 + page - 1) / page * page
	if data == 0 {
		data = page
	}
	m, err := syscall.Mmap(-1, 0, data+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(m) }) // a leaked test mapping is harmless
	for _, g := range [][]byte{m[:page], m[page+data:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	off := page
	if !front {
		off = page + data - n*4
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&m[off])), n)
}
