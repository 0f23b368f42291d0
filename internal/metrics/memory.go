package metrics

// MemoryStats describes the live memory plane of one training run (§4.5):
// how much task memory the offline plan needs, how the shared online pools
// behaved, and what the Go runtime paid in garbage collection while the
// learners trained. The core trainer fills it from the network's MemPlan,
// the memplan.OnlinePlanner accounting, and runtime.MemStats deltas across
// the epoch loop.
type MemoryStats struct {
	// ArenaBytesPerTask is the planned footprint of one learning task (the
	// arena the offline planner lays out: activations, lowering scratch and
	// gradients with reference-count reuse applied).
	ArenaBytesPerTask int64
	// NaiveBytesPerTask is the same task without buffer reuse (one slot per
	// operator buffer).
	NaiveBytesPerTask int64
	// Learners is the learner count the pools served (the final phase's k).
	Learners int

	// PoolAllocatedBytes is the memory backing the shared per-operator
	// pools — the run's actual activation footprint. Under §4.5 sharing it
	// grows with peak task concurrency, not with learner count.
	PoolAllocatedBytes int64
	// PoolPeakBytes is the high-water mark of concurrently checked-out
	// bytes.
	PoolPeakBytes int64
	// PoolAllocs / PoolReuses count fresh pool allocations vs pool hits;
	// PoolBudgetWaits counts acquisitions that blocked on the memory
	// budget.
	PoolAllocs, PoolReuses int
	PoolBudgetWaits        int

	// GCPauseNs is the total stop-the-world pause accumulated during the
	// epoch loop, and NumGC the collections that ran.
	GCPauseNs uint64
	NumGC     uint32
	// AllocsPerIter is the mean heap allocations per joined iteration over
	// the epoch loop (steady state: setup and teardown excluded). The window
	// can hold the few allocations of the test set, which set-up builds
	// beside the first epoch, together with the evaluation lanes; those
	// lanes fell inside it before too, built at the first evaluation.
	AllocsPerIter float64
	// HeapAllocBytes is the live heap at the end of the run.
	HeapAllocBytes uint64
}

// PlanSavings returns the fraction of the naive task footprint the offline
// plan avoids.
func (m MemoryStats) PlanSavings() float64 {
	if m.NaiveBytesPerTask == 0 {
		return 0
	}
	return 1 - float64(m.ArenaBytesPerTask)/float64(m.NaiveBytesPerTask)
}

// PoolHitRate returns the fraction of task-buffer acquisitions served from
// a shared pool rather than a fresh allocation.
func (m MemoryStats) PoolHitRate() float64 {
	total := m.PoolAllocs + m.PoolReuses
	if total == 0 {
		return 0
	}
	return float64(m.PoolReuses) / float64(total)
}

// ActivationBytesPerLearner returns the pool footprint amortised over the
// learner count — the quantity whose sub-linear growth in m is the point of
// buffer sharing.
func (m MemoryStats) ActivationBytesPerLearner() float64 {
	if m.Learners == 0 {
		return 0
	}
	return float64(m.PoolAllocatedBytes) / float64(m.Learners)
}
