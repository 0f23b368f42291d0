package autotune

// Online is Algorithm 2's walk, fed one throughput observation per
// measurement window: a simulated window on a fresh engine (Tune), or an
// epoch of a real training run, which resizes the running system as the
// paper's online form does (§3.4/§4.4). Starting from one learner, it
// proposes adding a learner while throughput keeps improving beyond the
// tolerance threshold, and reverts to the previous count once it stops.
type Online struct {
	max    int
	warmup int

	m       int     // learner count currently running
	best    float64 // accepted throughput at m-1 learners (line 5's t_prev)
	probing bool    // true while m is a candidate under measurement
	settled bool
	history []Decision
}

// NewOnline creates the controller; the run must start with M() learners.
// It starts at start learners (at least 1, Alg 2 line 1), never proposes
// more than ceiling, and discards the first warmup observations while
// caches and the data pipeline fill (0 discards none).
func NewOnline(start, ceiling, warmup int) *Online {
	start = max(start, 1)
	return &Online{max: max(ceiling, start), warmup: warmup, m: start}
}

// M returns the learner count the run should currently use.
func (o *Online) M() int { return o.m }

// Settled reports whether the search has converged; after that Observe
// keeps returning the chosen count.
func (o *Online) Settled() bool { return o.settled }

// History lists the (learner count, throughput) decisions so far.
func (o *Online) History() []Decision { return o.history }

// Observe feeds the throughput (images/s) measured over the last window at
// M() learners and returns the learner count for the next window. The
// caller resizes the running system whenever the return value differs from
// the count it measured with.
func (o *Online) Observe(throughput float64) int {
	if o.settled {
		return o.m
	}
	if o.warmup > 0 {
		o.warmup--
		return o.m
	}
	o.history = append(o.history, Decision{M: o.m, Throughput: throughput})
	if !o.probing {
		// Baseline measured; propose the first extra learner (line 4).
		o.best = throughput
		if o.m < o.max {
			o.m++
			o.probing = true
		} else {
			o.settled = true
		}
		return o.m
	}
	if throughput-o.best > threshold*o.best {
		// Significant improvement: keep the learner, probe the next
		// (line 6).
		o.best = throughput
		if o.m < o.max {
			o.m++
		} else {
			o.settled = true
		}
		return o.m
	}
	// No significant improvement (or a decrease): revert and stop at the
	// peak (line 7).
	o.m--
	o.settled = true
	return o.m
}
