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
// The pool is carved from one process-wide compute budget, and each kernel
// call's share of it is counted, not declared: a call gets
// max(1, budget/tasks) workers, where tasks is the number of learning tasks,
// serving batches and evaluation lanes in flight right now — the code that
// owns them (engine.Runtime, serve.Engine, core's evaluator) brackets each
// one with EnterTask/ExitTask.
// Without the divisor, k learner goroutines each fanning out to a
// NumCPU-sized pool would put k×NumCPU compute goroutines on NumCPU cores
// (oversubscription); with it, task-level and kernel-level parallelism
// together stay within the budget. Work done with no task in flight — a
// whole optimiser step — gets the whole budget. Evaluation deals its
// batches to one lane per worker it would get and counts each lane as a
// task (core's evaluator), so its small GEMMs run unsplit, side by side.
// Several runs in one process (in-process ranks, a trainer beside a server)
// add up without anyone setting anything.
//
// Determinism contract: ParallelFor only ever partitions an index range into
// disjoint chunks, and every kernel built on it computes each output element
// by an order that does not depend on chunk boundaries. Results are therefore
// bit-identical at any worker count, including 1 (see DESIGN.md §8).

// parPool is the budget and the semaphore chunk goroutines are borrowed
// from. The semaphore holds budget−1 tokens, the caller of a kernel always
// being one of its workers.
type parPool struct {
	budget int
	sem    chan struct{}
}

var (
	// parCur is the pool every kernel call reads, lock-free: SetWorkerBudget
	// publishes a whole (budget, sem) pair with one pointer swap, and a
	// chunk goroutine still running across a swap returns its token to the
	// channel it took it from.
	parCur atomic.Pointer[parPool]
	// parTasks counts the tasks in flight.
	parTasks atomic.Int32
)

func init() {
	n := runtime.NumCPU()
	if s := os.Getenv("CROSSBOW_PARALLELISM"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	SetWorkerBudget(n)
}

// SetWorkerBudget sets the process-wide compute-goroutine budget the kernel
// pool is carved from. n < 1 selects runtime.NumCPU(). The initial value is
// runtime.NumCPU(), overridable with the CROSSBOW_PARALLELISM environment
// variable. Changing the budget never changes numeric results.
func SetWorkerBudget(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	parCur.Store(&parPool{budget: n, sem: make(chan struct{}, n-1)})
}

// WorkerBudget returns the process-wide compute-goroutine budget.
func WorkerBudget() int { return parCur.Load().budget }

// EnterTask counts one task — a learning task, a serving batch or an
// evaluation lane — in flight until the matching ExitTask. Every kernel
// call meanwhile divides the budget by the count, so call it once per task,
// around the compute only. Both calls are one atomic add.
func EnterTask() { parTasks.Add(1) }

// ExitTask ends the task EnterTask counted.
func ExitTask() { parTasks.Add(-1) }

// share is the worker bound of one kernel call under p:
// max(1, budget/tasks in flight), the whole budget with none.
func share(p *parPool) int {
	return max(1, p.budget/max(1, int(parTasks.Load()), int(parFloor.Load())))
}

// Parallelism returns the worker bound a kernel call made now would get.
func Parallelism() int { return share(parCur.Load()) }

// parChunks returns how many chunks ParallelFor(n, grain, ·) runs under the
// pool p; 1 means the whole range runs inline on the caller.
func parChunks(p *parPool, n, grain int) int {
	if p.budget == 1 || n <= grain {
		return 1
	}
	return min((n+grain-1)/grain, share(p))
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
