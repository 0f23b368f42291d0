package nn

import "crossbow/internal/tensor"

// SetKernelMode is a no-op the frozen benchmark module (benchmark/) still
// calls: there is one kernel contract since PR 23. Nothing in the root module
// may call it (TestBenchCompatUnused); ROADMAP item 6(f) deletes this file.
func (n *Network) SetKernelMode(tensor.KernelMode) {}
