package tensor

import (
	"sync"
	"testing"
)

// TestWorkerBudgetDividesPool pins the oversubscription fix: the effective
// kernel pool is the process-wide budget divided by the declared number of
// concurrent learner goroutines, never below one.
func TestWorkerBudgetDividesPool(t *testing.T) {
	prevBudget := WorkerBudget()
	prevLearners := ActiveLearners()
	defer func() {
		SetActiveLearners(prevLearners)
		SetWorkerBudget(prevBudget)
	}()

	SetWorkerBudget(8)
	cases := []struct{ learners, want int }{
		{1, 8}, {2, 4}, {3, 2}, {4, 2}, {8, 1}, {16, 1}, {0, 8},
	}
	for _, c := range cases {
		SetActiveLearners(c.learners)
		if got := Parallelism(); got != c.want {
			t.Errorf("budget 8, learners %d: Parallelism() = %d, want %d", c.learners, got, c.want)
		}
	}

	SetActiveLearners(2)
	SetWorkerBudget(6)
	if got := Parallelism(); got != 3 {
		t.Errorf("budget 6, learners 2: Parallelism() = %d, want 3", got)
	}
	if got := WorkerBudget(); got != 6 {
		t.Errorf("WorkerBudget() = %d, want 6", got)
	}
	if got := ActiveLearners(); got != 2 {
		t.Errorf("ActiveLearners() = %d, want 2", got)
	}
}

// TestSetParallelismBackCompat: with one active learner, SetParallelism(n)
// bounds the pool to exactly n, the historical contract.
func TestSetParallelismBackCompat(t *testing.T) {
	prevBudget := WorkerBudget()
	prevLearners := ActiveLearners()
	defer func() {
		SetActiveLearners(prevLearners)
		SetWorkerBudget(prevBudget)
	}()

	SetActiveLearners(1)
	for _, n := range []int{1, 2, 7} {
		SetParallelism(n)
		if got := Parallelism(); got != n {
			t.Errorf("SetParallelism(%d): Parallelism() = %d, want %d", n, got, n)
		}
	}
}

// TestSetActiveLearnersRestore verifies the save/restore idiom drivers use
// around a training run, including under concurrent ParallelFor traffic.
func TestSetActiveLearnersRestore(t *testing.T) {
	prevBudget := WorkerBudget()
	prevLearners := ActiveLearners()
	defer func() {
		SetActiveLearners(prevLearners)
		SetWorkerBudget(prevBudget)
	}()

	SetWorkerBudget(4)
	SetActiveLearners(1)
	prev := SetActiveLearners(4)
	if prev != 1 {
		t.Fatalf("SetActiveLearners returned prev %d, want 1", prev)
	}

	// ParallelFor must stay correct (full coverage, disjoint chunks) while
	// the pool is being resized concurrently.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			SetActiveLearners(1 + i%4)
		}
	}()
	for trial := 0; trial < 50; trial++ {
		const n = 1000
		marks := make([]int32, n)
		var mu sync.Mutex
		ParallelFor(n, 64, func(lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				marks[i]++
			}
			mu.Unlock()
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("trial %d: index %d covered %d times", trial, i, m)
			}
		}
	}
	wg.Wait()
	if prev := SetActiveLearners(prevLearners); prev < 1 {
		t.Fatalf("learner count fell below 1: %d", prev)
	}
}

// TestActiveLearnersFlipDoesNotAllocate: the lockstep runtime declares one
// active learner around every optimiser step and restores the count after
// it, which changes the semaphore capacity twice per iteration; the
// per-capacity semaphores make that flip free.
func TestActiveLearnersFlipDoesNotAllocate(t *testing.T) {
	defer SetWorkerBudget(WorkerBudget())
	defer SetActiveLearners(SetActiveLearners(2))
	SetWorkerBudget(2)
	SetActiveLearners(SetActiveLearners(1)) // both capacities now exist
	if a := testing.AllocsPerRun(100, func() { SetActiveLearners(SetActiveLearners(1)) }); a != 0 {
		t.Fatalf("learner-count flip allocates %v times, want 0", a)
	}
}
