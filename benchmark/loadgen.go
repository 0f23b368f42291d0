package main

import (
	"math"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// Open-loop load generation. Independent users do not wait for each other,
// so requests are sent on a schedule fixed before the phase starts, whatever
// the server does, and each request's latency is measured from the moment it
// was DUE — not from the moment it was sent. A server stall therefore shows
// in the latency of every request queued behind it (timing from the send, or
// from enqueue inside the engine, hides exactly that wait: coordinated
// omission). How late the generator itself ran is reported alongside, since
// a lagging generator makes the numbers meaningless.

// poissonSchedule draws due times (offsets from the phase start) of a
// Poisson process with the given rate over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*1e9))
	}
	return out
}

// onOffSchedule alternates Poisson bursts at the high rate with lulls at
// the low rate, each half period long, starting with a burst.
func onOffSchedule(rng *rand.Rand, high, low float64, half, dur time.Duration) []time.Duration {
	var out []time.Duration
	for start, on := time.Duration(0), true; start < dur; start, on = start+half, !on {
		rate := low
		if on {
			rate = high
		}
		for _, off := range poissonSchedule(rng, rate, min(half, dur-start)) {
			out = append(out, start+off)
		}
	}
	return out
}

// outcome is what one request came to.
type outcome uint8

const (
	reqOK     outcome = iota
	reqShed           // refused by the server (overload)
	reqFailed         // any other error, or a wrong answer
)

// phaseResult is one open-loop phase's raw record, indexed by request.
type phaseResult struct {
	latencyMs []float64 // from due time to reply
	lagMs     []float64 // from due time to hand-off to a sender: the generator's own lateness
	doneMs    []float64 // closed loop only: from phase start to reply
	outcomes  []outcome
	start     time.Time
	due       []time.Duration // open loop only: the schedule, offsets from start
	wall      time.Duration
}

func (p *phaseResult) count(o outcome) int {
	n := 0
	for _, v := range p.outcomes {
		if v == o {
			n++
		}
	}
	return n
}

// limitLatencies returns the latency sample with every failed or refused
// request counted as missing the limit by a wide margin, so a quantile over
// it can never look better for dropping work.
func (p *phaseResult) limitLatencies(limitMs float64) []float64 {
	out := make([]float64, len(p.latencyMs))
	for i, l := range p.latencyMs {
		if p.outcomes[i] != reqOK {
			l = math.Max(l, 10*limitMs)
		}
		out[i] = l
	}
	return out
}

// within counts requests answered correctly within the limit.
func (p *phaseResult) within(limitMs float64) int {
	n := 0
	for i, l := range p.latencyMs {
		if p.outcomes[i] == reqOK && l <= limitMs {
			n++
		}
	}
	return n
}

// sleepUntil blocks until t. time.Sleep overshoots by ~1 ms on an idle Linux
// box (the runtime's timer wait is millisecond-granular), which at thousands
// of requests per second would be most of the schedule; nanosleep wakes
// within ~100 µs without spinning on a core the server needs.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake (EINTR) just loops
	}
}

// openLoop sends one request per schedule entry at its due time through a
// pool of parked sender goroutines and blocks until all have been answered.
// do(i) performs request i and must block until its reply. With every
// sender busy the scheduler waits for one, and that wait counts towards the
// latency of the request it delays — exactly as a user would experience it.
func openLoop(schedule []time.Duration, senders int, do func(i int) outcome) *phaseResult {
	n := len(schedule)
	res := &phaseResult{
		latencyMs: make([]float64, n),
		lagMs:     make([]float64, n),
		outcomes:  make([]outcome, n),
	}
	start := time.Now()
	res.start, res.due = start, schedule
	work := make(chan int) // unbuffered: a hand-off is a sender taking the request
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				due := start.Add(schedule[i])
				res.lagMs[i] = float64(time.Since(due)) / 1e6
				res.outcomes[i] = do(i)
				res.latencyMs[i] = float64(time.Since(due)) / 1e6
			}
		}()
	}
	for i, off := range schedule {
		sleepUntil(start.Add(off))
		work <- i
	}
	close(work)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// closedLoop has each of clients goroutines send its next request only when
// the previous one returns, total requests in all, and reports the wall.
func closedLoop(total, clients int, do func(i int) outcome) *phaseResult {
	res := &phaseResult{
		latencyMs: make([]float64, total),
		doneMs:    make([]float64, total),
		outcomes:  make([]outcome, total),
	}
	start := time.Now()
	work := make(chan int, clients) // one slot per client: nobody waits to be handed work
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				res.outcomes[i] = do(i)
				res.latencyMs[i] = float64(time.Since(t0)) / 1e6
				res.doneMs[i] = float64(time.Since(start)) / 1e6
			}
		}()
	}
	for i := 0; i < total; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}
