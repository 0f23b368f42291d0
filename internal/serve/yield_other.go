//go:build !linux

package serve

func yieldCPU() {}
