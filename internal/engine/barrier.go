package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// barrierSpins is how many times a waiter probes the generation counter,
// yielding the processor between probes, before it parks. A probe with
// nothing else runnable costs 0.15–0.19 µs, so the budget covers 0.6–0.8 ms:
// several times the waits a lockstep round produces (task skew ~60 µs at the
// median, the peer's shard of the optimiser step ~30 µs, the serial section
// a few µs), so on idle cores a round never parks, while a waiter behind a
// descheduled or oversubscribed peer gives its core up after about one
// task's time.
//
// Measured on the 2-vCPU reference box: train-resnet32 images/s as a ratio
// to the coordinator loop this barrier replaced (unbuffered-channel
// dispatch, a done channel, the step run alone by the coordinator), six
// rounds of benchmark/run.sh, seeds 1–6, every variant once a round in
// rotating order, medians (range; rounds won):
//
//	    0 probes (park-only)  0.90× (0.77–1.06; 1 of 6)
//	   64 probes (~10 µs)     0.93× (0.84–0.95; 0 of 6)
//	  512 probes (~90 µs)     1.13× (0.98–1.35; 5 of 6)
//	 4096 probes              1.24× (1.17–1.39; 6 of 6)
//	65536 probes (~11 ms)     1.24× (1.00–1.53; 6 of 6)
//
// Parking at both crossings is no better than the channel hand-offs it
// replaced — either way a wake-up has to rouse a processor that went idle —
// and spinning only pays once the budget outlasts the ordinary skew between
// two learners' tasks. Past that nothing is gained, and a longer spin only
// burns more of a core that a loaded box could use.
const barrierSpins = 4096

// barrier is a reusable rendezvous for k goroutines with a serial section:
// the last arriver of a generation runs fn while every other party waits,
// and only then releases them. Everything a party wrote before arriving is
// visible to fn, and everything fn wrote is visible to every party after
// its release (the atomics order both).
//
// Waiters spin — probe the generation, runtime.Gosched, repeat — for
// barrierSpins probes and then park on the condition variable. The yield is
// what makes the spin safe wherever the park is: at GOMAXPROCS 1, or with
// more parties than cores, a spinning waiter hands its processor to the
// peer it is waiting for.
type barrier struct {
	k       int32
	spins   int // barrierSpins; the tests also run it at 0, park-only
	arrived atomic.Int32
	gen     atomic.Uint32
	mu      sync.Mutex
	cond    *sync.Cond
}

func newBarrier(k int) *barrier {
	b := &barrier{k: int32(k), spins: barrierSpins}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all k parties have called it for the current
// generation. fn (which may be nil) runs exactly once per generation, on the
// last arriver's goroutine, after every arrival and before any release.
func (b *barrier) await(fn func()) {
	gen := b.gen.Load() // before arriving: the release may follow at once
	if b.arrived.Add(1) == b.k {
		b.arrived.Store(0) // nobody re-arrives before the release below
		if fn != nil {
			fn()
		}
		b.mu.Lock() // a waiter between its last probe and its Wait holds mu
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for i := 0; i < b.spins; i++ {
		if b.gen.Load() != gen {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
