package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// A server that stalls once for 50 ms, driven by a generator with too few
// senders to keep the schedule through the stall: the requests that were due
// during the stall are sent late. Timed from the send — what a generator that
// starts its clock at enqueue measures — almost none of them look slow; timed
// from when they were due, the stall shows in the p99, and the generator-lag
// report says why.
func TestStallInflatesDueTimeLatency(t *testing.T) {
	const (
		rate     = 1000.0
		stall    = 50 * time.Millisecond
		stallAt  = 500 // request index that stalls the server
		senders  = 4
		duration = 2 * time.Second
	)
	schedule := poissonSchedule(rand.New(rand.NewSource(1)), rate, duration)
	fromSend := make([]float64, len(schedule))
	var server sync.Mutex // the fake server answers one request at a time
	res := openLoop(schedule, senders, func(i int) outcome {
		t0 := time.Now()
		server.Lock()
		if i == stallAt {
			time.Sleep(stall)
		}
		server.Unlock()
		fromSend[i] = float64(time.Since(t0)) / 1e6
		return reqOK
	})

	dueP99 := quantile(res.latencyMs, 0.99)
	sendP99 := quantile(fromSend, 0.99)
	lagP99 := quantile(res.lagMs, 0.99)
	t.Logf("%d requests: p99 from due time %.2f ms, from send %.2f ms, generator lag p99 %.2f ms", len(schedule), dueP99, sendP99, lagP99)
	// About 50 requests fall due during the stall and wait 0-50 ms for it to
	// end: 2.5% of the run, so the due-time p99 sits well inside the stall.
	if dueP99 < 15 {
		t.Errorf("due-time p99 %.2f ms does not show the %v stall", dueP99, stall)
	}
	// Only the senders blocked in the server saw it from their own clocks.
	if sendP99 >= dueP99/2 {
		t.Errorf("send-time p99 %.2f ms is not clearly below the due-time p99 %.2f ms", sendP99, dueP99)
	}
	if lagP99 < 10 {
		t.Errorf("generator lag p99 %.2f ms does not report that the generator fell behind", lagP99)
	}
	if res.count(reqOK) != len(schedule) {
		t.Errorf("%d of %d requests answered", res.count(reqOK), len(schedule))
	}
}

func TestSchedulesAreSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 2000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 2000, time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 2000, time.Second)
	if len(a) != len(b) || len(a) == len(c) && a[0] == c[0] {
		t.Fatalf("same seed gave %d and %d requests, another seed %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not ordered at %d", i)
		}
	}
	if n := float64(len(a)); n < 1800 || n > 2200 {
		t.Errorf("2000 1/s over 1 s gave %v requests", n)
	}

	bursts := onOffSchedule(rand.New(rand.NewSource(7)), 4000, 400, 250*time.Millisecond, time.Second)
	on, off := 0, 0
	for _, d := range bursts {
		if (d/(250*time.Millisecond))%2 == 0 {
			on++
		} else {
			off++
		}
	}
	if on < 5*off {
		t.Errorf("bursts %d vs lulls %d requests: want about ten to one", on, off)
	}
}
