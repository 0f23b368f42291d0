package serve

import (
	"time"
)

// SLO-driven adaptive batching (DESIGN.md §16). The static MaxBatch/MaxDelay
// knobs force a deployment-time guess: too small wastes the amortization
// larger batches buy, too large blows the latency budget — and on this
// runner's profile a fixed batch 32 actually serves FEWER requests per
// second than batch 8 (per-sample service time degrades past the L2-friendly
// tile, and partial batches still pay the full fixed-batch forward pass).
// The controller replaces the guess with a measurement loop: it learns the
// per-class batch service time ŝ(b), derives each class's capacity
// replicas·b/ŝ(b), and picks the SMALLEST feasible class whose capacity
// covers the measured arrival rate with headroom. Small batch at low load
// (minimum latency), bigger batch only when the load demands it, and never a
// class whose own service time cannot meet the SLO. Because the class table
// is rate-independent and scanned smallest-first, the chosen batch size is
// monotone in offered load by construction — and a class past the machine's
// capacity peak (the batch-32 trap) is simply never the first to satisfy
// demand.

// controlInput is one decision window's measurements.
type controlInput struct {
	// Rate is the measured arrival rate over the window in requests/second
	// (offered load: admitted + shed).
	Rate float64
	// P99 is the measured end-to-end request p99 over the window (zero when
	// the window saw no completions).
	P99 time.Duration
	// Replicas is the live replica count the capacity model should use.
	Replicas int
	// QueueDepth is the request queue depth at window end — the overload
	// discriminator: a deep queue means breaches are an admission problem,
	// a shallow one means the service estimate lied.
	QueueDepth int
	// ClassService carries the window's mean batch service time per class
	// (zero where the class ran no batches), indexed like the controller's
	// class table.
	ClassService []time.Duration
}

// controlOutput is the controller's decision: the batch ceiling and
// straggler-wait cap the gathering replicas should use next window.
type controlOutput struct {
	MaxBatch int
	MaxDelay time.Duration
}

// svcGrowth is the optimistic extrapolation factor for unvisited classes:
// doubling the batch is assumed to cost ×1.7 in service time (sublinear —
// batching amortizes) until a measurement says otherwise. Optimism matters:
// a pessimistic guess would make every larger class look infeasible and the
// controller could never justify visiting one.
const svcGrowth = 1.7

// svcEWMAAlpha smooths per-class service measurements. One window moves the
// estimate 40% toward the new value: fast enough to track a model hot-swap,
// slow enough that one noisy window cannot flap the class choice.
const svcEWMAAlpha = 0.4

// controller carries the adaptive batching state. It is a pure decision
// kernel — measurements in, (MaxBatch, MaxDelay) out, no clocks, no
// goroutines — so the property tests can drive it with synthetic arrival
// traces and a simulated service model.
type controller struct {
	slo      time.Duration
	classes  []int     // batch size ladder: powers of two up to the ceiling
	svcNs    []float64 // EWMA of measured service time per class (0: unvisited)
	headroom float64   // capacity must exceed rate by this factor
	cur      int       // current class index
}

// batchClasses builds the ladder: 1, 2, 4, ... up to and including maxBatch
// (appending maxBatch itself when it is not a power of two).
func batchClasses(maxBatch int) []int {
	var cs []int
	for b := 1; b < maxBatch; b *= 2 {
		cs = append(cs, b)
	}
	return append(cs, maxBatch)
}

func newController(slo time.Duration, maxBatch int) *controller {
	return &controller{
		slo:      slo,
		classes:  batchClasses(maxBatch),
		svcNs:    make([]float64, len(batchClasses(maxBatch))),
		headroom: 1.2,
	}
}

// estimate returns ŝ(class i) in nanoseconds: the EWMA where measured,
// extrapolated from the nearest measured class by svcGrowth per doubling
// otherwise, and zero when nothing is measured yet.
func (c *controller) estimate(i int) float64 {
	if c.svcNs[i] > 0 {
		return c.svcNs[i]
	}
	// Nearest measured anchor below, then above.
	for d := 1; d < len(c.classes); d++ {
		if j := i - d; j >= 0 && c.svcNs[j] > 0 {
			return c.svcNs[j] * pow(svcGrowth, float64(d))
		}
		if j := i + d; j < len(c.classes) && c.svcNs[j] > 0 {
			return c.svcNs[j] / pow(svcGrowth, float64(d))
		}
	}
	return 0
}

func pow(base float64, n float64) float64 {
	r := 1.0
	for ; n >= 1; n-- {
		r *= base
	}
	return r
}

// delayFor bounds the straggler wait for class i: long enough to fill the
// batch at the current rate, never more than the SLO slack left after two
// service times (one queued batch ahead plus our own), never more than a
// quarter of the SLO, and zero for single-sample batches (nothing to wait
// for).
func (c *controller) delayFor(i int, rate, svcNs float64) time.Duration {
	if i == 0 || c.classes[i] <= 1 {
		return 0
	}
	fill := 0.0
	if rate > 0 {
		fill = float64(c.classes[i]) / rate * float64(time.Second)
	}
	slack := (float64(c.slo) - 2*svcNs) / 2
	quarter := float64(c.slo) / 4
	d := fill
	if d > slack {
		d = slack
	}
	if d > quarter {
		d = quarter
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// step ingests one window's measurements and returns the next window's
// batching policy.
func (c *controller) step(in controlInput) controlOutput {
	// Fold the window's per-class service observations into the EWMAs.
	for i, s := range in.ClassService {
		if i >= len(c.svcNs) || s <= 0 {
			continue
		}
		if c.svcNs[i] == 0 {
			c.svcNs[i] = float64(s)
		} else {
			c.svcNs[i] += svcEWMAAlpha * (float64(s) - c.svcNs[i])
		}
	}

	// Safety override: a breached SLO with a shallow queue means the
	// current class's service estimate is too rosy (the queue-deep case is
	// overload — admission control's problem, and shrinking the batch would
	// only cut capacity further). Inflate the estimate; if the class truly
	// cannot meet the SLO it turns infeasible within a few windows and the
	// selection below steps off it.
	if in.P99 > c.slo && c.svcNs[c.cur] > 0 &&
		in.QueueDepth < in.Replicas*c.classes[c.cur] {
		c.svcNs[c.cur] *= 1.25
	}

	replicas := in.Replicas
	if replicas < 1 {
		replicas = 1
	}
	need := in.Rate * c.headroom

	// Target: the smallest feasible class whose capacity covers demand,
	// falling back to the highest-capacity feasible class under saturation
	// (the excess is load shedding's job), and to the smallest class when
	// nothing is feasible. The selection scans a rate-independent capacity
	// table smallest-first, so the target is monotone in offered load.
	best, bestCap := -1, 0.0
	chosen := -1
	for i := range c.classes {
		s := c.estimate(i)
		if s <= 0 {
			// Nothing measured anywhere yet (cold start): stay put until
			// the first window reports.
			return c.output(in.Rate)
		}
		if 2*s > float64(c.slo) {
			continue // the class alone blows the budget
		}
		capacity := float64(replicas) * float64(c.classes[i]) / s * float64(time.Second)
		if capacity > bestCap {
			best, bestCap = i, capacity
		}
		if chosen < 0 && capacity >= need {
			chosen = i
		}
	}
	target := 0
	switch {
	case chosen >= 0:
		target = chosen
	case best >= 0:
		target = best
	}
	// Move ONE class per window, not straight to the target. Distant
	// classes are known only by extrapolation — optimistic by design — so
	// jumping to one would bet a whole window on a guess (the batch-32 trap
	// wears exactly this disguise: extrapolated capacity keeps growing past
	// the real peak). Climbing measures every rung on the way, replacing
	// the guess with data before the next step commits further.
	if target > c.cur {
		c.cur++
	} else if target < c.cur {
		c.cur--
	}
	return c.output(in.Rate)
}

func (c *controller) output(rate float64) controlOutput {
	return controlOutput{
		MaxBatch: c.classes[c.cur],
		MaxDelay: c.delayFor(c.cur, rate, c.estimate(c.cur)),
	}
}
