package gpusim

// KernelsStarted reports how many kernels s has started so far.
func KernelsStarted(s *Sim) uint64 { return s.seq }
