package nn

import "crossbow/internal/tensor"

// SetKernelMode is a no-op the frozen benchmark module (benchmark/) still
// calls: there is one kernel contract. Nothing in the root module may call it
// (TestBenchCompatUnused), so the file goes once the benchmark stops calling
// it.
func (n *Network) SetKernelMode(tensor.KernelMode) {}
