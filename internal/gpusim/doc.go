// Package gpusim is a discrete-event simulator of multi-GPU servers
// (DESIGN.md §1): devices with a fixed pool of streaming multiprocessors
// (SMs), in-order streams, cross-stream events, DMA copy transfers, a PCIe
// topology with ring all-reduce inside a server, and the Interconnect cost
// model of the network between servers (DESIGN.md §4).
//
// It stands in for the CUDA substrate the paper runs on. The simulator
// models the three quantities hardware efficiency depends on: occupancy
// (kernels request SMs; a device runs concurrent kernels only while SMs
// remain), serialisation (ops on one stream run in order; ops on different
// streams may overlap) and transfer cost (bytes over PCIe links). Virtual
// time is in microseconds.
package gpusim
