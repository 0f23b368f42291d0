package tensor

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Intra-op parallelism: a shared, bounded pool of compute goroutines that
// the blocked kernels fan work out to. The pool is a semaphore, not a fixed
// set of worker loops — ParallelFor callers execute chunks inline whenever
// the pool is saturated, which makes nested parallel kernels (k learner
// goroutines each calling Gemm) deadlock-free by construction.
//
// The pool is sized from a process-wide compute budget shared by every
// concurrent learner goroutine: effective workers = max(1, budget/learners).
// Without the learner divisor, k learner goroutines each fanning out to a
// NumCPU-sized pool would put k×NumCPU compute goroutines on NumCPU cores
// (oversubscription); with it, inter-learner and intra-kernel parallelism
// together never exceed the budget.
//
// Determinism contract: ParallelFor only ever partitions an index range into
// disjoint chunks, and every kernel built on it computes each output element
// by an order that does not depend on chunk boundaries. Results are therefore
// bit-identical at any worker count, including 1 (see DESIGN.md §8).

// parPool is what a kernel call needs to know about the pool: the effective
// per-kernel worker bound, max(1, budget/learners), and the semaphore chunk
// goroutines are borrowed from.
type parPool struct {
	workers int
	sem     chan struct{}
}

var (
	parMu       sync.Mutex // guards the writers' state: budget, learners, parPools
	parBudget   int        // process-wide compute-goroutine budget
	parLearners int        // learner goroutines currently sharing the budget
	// parCur is the pool every kernel call reads, lock-free: resizeLocked
	// publishes a whole (workers, sem) pair with one pointer swap, so a
	// reader sees either the old pair or the new one, never a mix. Kernels
	// read it ~150 times per ResNet-32 task from every learner at once, so
	// the read must not be a lock all learners share.
	parCur atomic.Pointer[parPool]
	// parPools keeps one pool per (workers, capacity) ever used. Drivers
	// flip the learner count to 1 and back around work done with every
	// learner stopped (each epoch's evaluation; every optimiser step of a
	// lockstep run whose optimiser has no sharded form); reusing the pool
	// makes a flip allocation-free, and a chunk goroutine still running
	// across a flip keeps its slot in the channel it took.
	parPools = map[[2]int]*parPool{}
)

func init() {
	parLearners = 1
	n := runtime.NumCPU()
	if s := os.Getenv("CROSSBOW_PARALLELISM"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	SetWorkerBudget(n)
}

// resize recomputes the effective pool. Caller holds parMu.
func resizeLocked() {
	workers := parBudget / parLearners
	if workers < 1 {
		workers = 1
	}
	// The semaphore is shared by all learners, so its capacity is the
	// budget minus the learner goroutines themselves (each caller is
	// always one of its kernel's workers): k learners each borrowing at
	// most workers-1 goroutines stay within k·(budget/k) ≤ budget.
	// With one learner this is the historical budget-1.
	cap := parBudget - parLearners
	if cap < 0 {
		cap = 0
	}
	key := [2]int{workers, cap}
	p, ok := parPools[key]
	if !ok {
		p = &parPool{workers: workers, sem: make(chan struct{}, cap)}
		parPools[key] = p
	}
	parCur.Store(p)
}

// SetWorkerBudget sets the process-wide compute-goroutine budget the kernel
// pool is carved from. n < 1 selects runtime.NumCPU(). The initial value is
// runtime.NumCPU(), overridable with the CROSSBOW_PARALLELISM environment
// variable. Changing the budget never changes numeric results.
func SetWorkerBudget(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	parMu.Lock()
	defer parMu.Unlock()
	parBudget = n
	resizeLocked()
}

// WorkerBudget returns the process-wide compute-goroutine budget.
func WorkerBudget() int {
	parMu.Lock()
	defer parMu.Unlock()
	return parBudget
}

// SetActiveLearners declares how many learner goroutines currently share the
// worker budget, resizing the kernel pool to max(1, budget/k) so learner-
// level and kernel-level parallelism together never oversubscribe the
// budget. k < 1 selects 1. Returns the previous value so callers can
// restore it.
func SetActiveLearners(k int) (prev int) {
	if k < 1 {
		k = 1
	}
	parMu.Lock()
	defer parMu.Unlock()
	prev = parLearners
	parLearners = k
	resizeLocked()
	return prev
}

// ActiveLearners returns the declared number of learner goroutines sharing
// the budget.
func ActiveLearners() int {
	parMu.Lock()
	defer parMu.Unlock()
	return parLearners
}

// SetParallelism bounds the number of goroutines the kernels use, including
// the caller. It is SetWorkerBudget under the current learner count: with
// one active learner (the default) the bound is exactly n, preserving the
// historical contract. n < 1 selects runtime.NumCPU(). Changing parallelism
// never changes numeric results.
func SetParallelism(n int) { SetWorkerBudget(n) }

// Parallelism returns the current effective kernel worker bound,
// max(1, WorkerBudget()/ActiveLearners()).
func Parallelism() int { return parCur.Load().workers }

// parChunks returns how many chunks ParallelFor(n, grain, ·) runs under the
// pool p; 1 means the whole range runs inline on the caller.
func parChunks(p *parPool, n, grain int) int {
	if p.workers == 1 || n <= grain {
		return 1
	}
	return min((n+grain-1)/grain, p.workers)
}

// parSplits reports whether ParallelFor(n, grain, fn) would currently split
// the range. Hot kernels test it before building fn, so a call that runs as
// one chunk materialises no closure and stays allocation-free at any worker
// budget.
func parSplits(n, grain int) bool {
	return parChunks(parCur.Load(), n, max(grain, 1)) > 1
}

// ParallelFor splits [0, n) into at most Parallelism() disjoint chunks of at
// least grain iterations each and runs fn over them, possibly concurrently.
// fn must treat its [lo, hi) range independently of the others (disjoint
// writes); chunk goroutines are borrowed from the shared bounded pool and
// excess chunks run inline on the caller.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := parCur.Load()
	chunks := parChunks(p, n, grain)
	if chunks <= 1 {
		fn(0, n)
		return
	}
	sem := p.sem
	size, rem := n/chunks, n%chunks
	var wg sync.WaitGroup
	lo := size
	if rem > 0 {
		lo++
	}
	first := lo // caller's own chunk is [0, first)
	for c := 1; c < chunks; c++ {
		hi := lo + size
		if c < rem {
			hi++
		}
		clo, chi := lo, hi
		lo = hi
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				fn(clo, chi)
			}()
		default:
			// Pool saturated: run inline. Same chunk, same result.
			fn(clo, chi)
		}
	}
	fn(0, first)
	wg.Wait()
}
