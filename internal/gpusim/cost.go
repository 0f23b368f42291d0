package gpusim

import (
	"math"

	"crossbow/internal/nn"
)

// CostModel converts full-scale model operators (nn.OpSpec) into simulated
// kernel launches: how many SMs a kernel occupies and how long it runs.
// Constants are calibrated to the paper's testbed — 8× Titan X (Pascal
// cards with the 3,072-core configuration the paper reports, i.e. 24 SMs)
// on PCIe 3.0 ×16 — but only *relative* behaviour matters for reproducing
// the figures: small batches occupy few SMs (so concurrent learners pay no
// penalty), large batches fill the device (so they scale only across GPUs).
type CostModel struct {
	// SMsPerDevice is the multiprocessor count per GPU.
	SMsPerDevice int
	// FLOPsPerSMPerUS is effective per-SM throughput (FLOPs per µs).
	FLOPsPerSMPerUS float64
	// ElemsPerSM is the number of output elements one SM covers at full
	// occupancy; kernels request ceil(outputElems/ElemsPerSM) SMs.
	ElemsPerSM int
	// KernelOverheadUS is fixed per-kernel launch latency.
	KernelOverheadUS float64
	// PCIeBytesPerUS is effective host↔device / device↔device bandwidth.
	PCIeBytesPerUS float64
	// TransferLatencyUS is fixed per-transfer latency.
	TransferLatencyUS float64
	// SchedulerOverheadUS is the host-side cost of dispatching one task;
	// Crossbow's concurrent task engine keeps this small, baseline engines
	// pay more per iteration (§5.2: LeNet's 1 ms tasks make this visible).
	SchedulerOverheadUS float64
	// SyncPerOpUS is the per-operator host coordination cost of one
	// learner's synchronisation (event wiring, launch serialisation),
	// charged once per synchronised iteration as #ops × SyncPerOpUS.
	// Calibrated to Figure 17: disabling synchronisation entirely buys
	// only ~20% throughput on ResNet-32.
	SyncPerOpUS float64
}

// DefaultCostModel returns the calibration used throughout the benchmarks.
func DefaultCostModel() CostModel {
	return CostModel{
		SMsPerDevice:        24,
		FLOPsPerSMPerUS:     80_000, // ~6.1 TFLOPs peak × ~30% efficiency / 24 SMs
		ElemsPerSM:          16384,
		KernelOverheadUS:    4,
		PCIeBytesPerUS:      12_000, // ~12 GB/s effective PCIe 3.0 ×16
		TransferLatencyUS:   10,
		SchedulerOverheadUS: 6,
		SyncPerOpUS:         12,
	}
}

// KernelCost returns the SM demand and duration of one operator applied to
// a batch of the given size, for one pass. passFLOPs scales the operator's
// forward FLOPs (1 for forward, 2 for backward, which runs the two GEMMs).
func (c CostModel) KernelCost(op nn.OpSpec, batch int, passFLOPs float64) (sms int, durUS float64) {
	elems := float64(op.OutElems) * float64(batch)
	sms = int(math.Ceil(elems / float64(c.ElemsPerSM)))
	if sms < 1 {
		sms = 1
	}
	if sms > c.SMsPerDevice {
		sms = c.SMsPerDevice
	}
	flops := float64(op.FLOPs) * float64(batch) * passFLOPs
	durUS = c.KernelOverheadUS + flops/(float64(sms)*c.FLOPsPerSMPerUS)
	return sms, durUS
}

// TransferUS returns the duration of moving n bytes over one PCIe link.
func (c CostModel) TransferUS(bytes int64) float64 {
	return c.TransferLatencyUS + float64(bytes)/c.PCIeBytesPerUS
}

// VectorKernelUS returns the duration of a flat model-vector kernel
// (corrections, averaging, momentum): bandwidth-bound at roughly one
// element per FLOP.
func (c CostModel) VectorKernelUS(elems int64) float64 {
	return c.KernelOverheadUS + float64(elems)/(float64(c.SMsPerDevice)*c.FLOPsPerSMPerUS/4)
}

// LearningTaskPlan is the kernel sequence of one learning task (forward and
// backward over every operator), ready to enqueue on a learner stream.
type LearningTaskPlan struct {
	Kernels []PlannedKernel
	// TotalUS is the sum of kernel durations: the task's execution time
	// when it runs alone on an otherwise idle device.
	TotalUS float64
}

// PlannedKernel is one kernel launch of a learning task.
type PlannedKernel struct {
	SMs   int
	DurUS float64
}

// PlanLearningTask lowers a full-scale model spec at the given batch size
// into the forward+backward kernel sequence (paper §4.2: "a learning task
// encapsulates multiple operators").
func (c CostModel) PlanLearningTask(spec *nn.ModelSpec, batch int) *LearningTaskPlan {
	p := &LearningTaskPlan{Kernels: make([]PlannedKernel, 0, 2*len(spec.Ops))}
	add := func(sms int, dur float64) {
		p.Kernels = append(p.Kernels, PlannedKernel{SMs: sms, DurUS: dur})
		p.TotalUS += dur
	}
	for _, op := range spec.Ops {
		add(c.KernelCost(op, batch, 1))
	}
	for i := len(spec.Ops) - 1; i >= 0; i-- {
		add(c.KernelCost(spec.Ops[i], batch, 2))
	}
	return p
}

// EnqueueLearningTask pushes the plan's kernels onto a stream as one op,
// which runs them one after another.
func EnqueueLearningTask(st *Stream, plan *LearningTaskPlan) {
	if len(plan.Kernels) > 0 {
		st.push(op{kind: opTask, plan: plan})
	}
}
