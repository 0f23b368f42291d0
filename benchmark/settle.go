package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The reference box has storms: for tens of seconds to minutes its host is
// so busy that a sleeping thread is woken late — a 200 µs nanosleep
// overshoots by 0.2-0.6 ms at the median instead of ~0.08 — and while that
// lasts every thread hand-off in the program is slow: the serving closed
// loop answers a third of its usual rate and open-loop p99 is tens of
// milliseconds (README.md, "The reference box"). No estimator inside a 20 s
// run survives that, so a run looks at the box first and waits for the storm
// to pass. The wait is bounded twice: per run, because a run must end within
// the driver's limit, and per checkout, because on a box whose timers are
// always this late the wait would otherwise be added to every run.
const (
	settleProbes  = 50
	settleSleep   = 200 * time.Microsecond
	settleBadUS   = 200.0            // median overshoot above this is a storm
	settleMaxWait = 90 * time.Second // per run
	settleBudget  = 600.0            // seconds per checkout
	settleFile    = ".bench_build/settle_waited_s"
)

// timerOvershootUS sleeps settleProbes times for settleSleep and returns the
// median overshoot in µs.
func timerOvershootUS() float64 {
	over := make([]float64, settleProbes)
	for i := range over {
		ts := syscall.NsecToTimespec(int64(settleSleep))
		t0 := time.Now()
		syscall.Nanosleep(&ts, nil) // an early wake (EINTR) reads as a small overshoot
		over[i] = float64(time.Since(t0)-settleSleep) / 1e3
	}
	return median(over)
}

// settle waits until two probes half a second apart find the box waking
// threads on time, or the run's or the checkout's waiting budget is spent,
// and says what it saw. The seconds waited so far are kept in settleFile;
// when that cannot be read or written the budget is this run's alone.
func settle(w io.Writer) {
	used := 0.0
	if b, err := os.ReadFile(settleFile); err == nil {
		used, _ = strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	}
	start := time.Now()
	budget := min(settleMaxWait, time.Duration((settleBudget-used)*float64(time.Second)))
	first, last, calm := -1.0, 0.0, 0
	for {
		last = timerOvershootUS()
		if first < 0 {
			first = last
		}
		if last <= settleBadUS {
			calm++
		} else {
			calm = 0
		}
		if calm == 2 || time.Since(start) >= budget {
			break
		}
		time.Sleep(500 * time.Millisecond)
	}
	waited := time.Since(start).Seconds()
	if first > settleBadUS {
		// Only a wait for a storm counts against the checkout's budget.
		used += waited
		_ = os.WriteFile(settleFile, []byte(strconv.FormatFloat(used, 'f', 1, 64)+"\n"), 0o644) // best effort, see above
	}
	fmt.Fprintf(w, "settle: a %v sleep overshoots by %.0f us at the median (first probe %.0f us, storm above %.0f us); waited %.1f s, %.0f of %.0f s used in this checkout\n",
		settleSleep, last, first, settleBadUS, waited, used, settleBudget)
}
