package serve

import "crossbow/internal/autotune"

// Replica autoscaling (DESIGN.md §16). With Config.AutoScale set the engine
// sizes its own replica pool: the training-side autotune.Online hill-climb —
// the paper's Algorithm 2, which finds the learner count where measured
// throughput stops improving — is pointed at serving replicas instead of
// learners. Replicas divide the process-wide worker budget the way learners
// do — every batch in flight is counted, and each kernel call gets the
// budget over the count (tensor.EnterTask) — so more replicas means more
// concurrent batches each computed with fewer workers; whether that trades
// up or down depends on the machine and the load, which is exactly why it is
// measured rather than configured.
//
// Online settles permanently — the right behaviour for a training run whose
// workload never changes, the wrong one for a serving fleet whose load does.
// The scaler adds the serving-side hysteresis around it:
//
//   - Demand-drift restart: once settled, a sustained rise of the offered
//     rate well past the rate the search settled at restarts the hill-climb
//     from the current count.
//   - Idle scale-in: a sustained offered rate that one-fewer replicas could
//     carry with headroom steps the pool down one replica at a time, down
//     to the configured floor.
//
// Both require consecutive qualifying windows (not one noisy spike), and
// every change moves by a single replica — the same one-rung-at-a-time rule
// the batching controller follows, for the same reason: each step is
// measured before the next commits.

// scaleEvery is how many control windows make one autoscaler window. The
// scaler needs to see the throughput consequence of its last move, which
// takes longer than a batching decision.
const scaleEvery = 5

// driftFactor is the sustained rate growth (×settled rate) that restarts
// the hill-climb; idleHeadroom is the capacity margin one-fewer replicas
// must offer before scale-in; stableWindows is the consecutive-window
// hysteresis for either move.
const (
	driftFactor   = 1.3
	idleHeadroom  = 1.3
	stableWindows = 3
)

// scaler sizes the replica pool from measured throughput and offered rate.
// It is a pure decision kernel like the batching controller: observations
// in, replica count out, so tests drive it with synthetic load histories.
type scaler struct {
	min, max int
	tuner    *autotune.Online
	cur      int

	settledRate float64 // offered rate when the search settled
	perCap      float64 // high-water per-replica throughput (slowly decayed)
	driftRun    int     // consecutive windows of demand drift
	idleRun     int     // consecutive windows of idle excess
	resizes     int
}

func newScaler(min, max int) *scaler {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	return &scaler{
		min:   min,
		max:   max,
		cur:   min,
		tuner: autotune.NewOnline(min, max, 1),
	}
}

// step ingests one scaling window — the offered request rate and the
// completed throughput, both in requests/second — and returns the replica
// count for the next window.
func (s *scaler) step(rate, throughput float64) int {
	// Per-replica capacity high-water: a demand-limited window's throughput
	// equals the offered rate and says nothing about what a replica CAN do,
	// so capacity is remembered from the busiest windows seen, with a slow
	// decay so a hot-swapped (slower) model cannot coast on stale glory.
	s.perCap *= 0.98
	if throughput > 0 && s.cur > 0 {
		if per := throughput / float64(s.cur); per > s.perCap {
			s.perCap = per
		}
	}
	if !s.tuner.Settled() {
		next := s.tuner.Observe(throughput)
		if next != s.cur {
			s.resizes++
		}
		s.cur = next
		if s.tuner.Settled() {
			s.settledRate = rate
			s.driftRun, s.idleRun = 0, 0
		}
		return s.cur
	}

	// Idle scale-in: if one-fewer replicas would still cover the offered
	// rate with headroom (judged by the per-replica capacity high-water),
	// shed a replica — after stableWindows consecutive such windows.
	if s.cur > s.min && s.perCap > 0 {
		if rate*idleHeadroom < s.perCap*float64(s.cur-1) {
			if s.idleRun++; s.idleRun >= stableWindows {
				s.cur--
				s.resizes++
				s.settledRate = rate
				s.idleRun = 0
			}
			return s.cur
		}
	}
	s.idleRun = 0

	// Demand-drift restart: sustained load well past the settled point
	// re-opens the search from the current count (warmup 0: the first
	// post-restart window is already a valid baseline, we have been
	// serving throughout).
	if s.cur < s.max && rate > s.settledRate*driftFactor {
		if s.driftRun++; s.driftRun >= stableWindows {
			s.tuner = autotune.NewOnline(s.cur, s.max, 0)
			s.driftRun = 0
		}
		return s.cur
	}
	s.driftRun = 0
	return s.cur
}

// applyScale publishes a new replica count: replica goroutines with ids at
// or above the target park within a poll tick — the serving analogue of
// resizing the learner count mid-run. The worker budget follows by itself:
// a parked replica has no batch in flight.
func (e *Engine) applyScale(n int) {
	if n == int(e.liveReplicas.Load()) {
		return
	}
	e.desiredReplicas.Store(int64(n))
	e.liveReplicas.Store(int64(n))
	e.resizes.Add(1)
}
