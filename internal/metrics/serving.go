package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Serving-side metrics: per-request latency quantiles and the batching
// scheduler's occupancy/queue statistics (DESIGN.md §11). The recorder is
// built for the prediction hot path — Record is lock-free and
// allocation-free, so instrumenting every request costs a few atomic adds.

// latSubBits sub-divides each power-of-two latency octave into 2^latSubBits
// buckets, bounding the quantile estimation error at ~1/2^latSubBits of the
// value (±12.5% at 3 bits) — plenty for p50/p99 reporting without the
// memory or coordination cost of exact percentile tracking.
const latSubBits = 3

const latBuckets = 64 << latSubBits

// LatencyRecorder accumulates a latency distribution in fixed exponential
// buckets. All methods are safe for concurrent use; Record never allocates
// and never blocks, so it can sit on a serving engine's per-request path.
// The zero value is ready to use.
type LatencyRecorder struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [latBuckets]atomic.Int64
}

// bucketOf maps a nanosecond latency to its bucket: the high latSubBits
// bits after the leading one sub-divide the value's power-of-two octave.
func bucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	n := bits.Len64(uint64(ns)) // octave + 1
	if n <= latSubBits {
		return int(ns)
	}
	sub := (uint64(ns) >> (n - 1 - latSubBits)) & (1<<latSubBits - 1)
	b := (n-latSubBits)<<latSubBits + int(sub)
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound of a bucket in nanoseconds.
func bucketUpper(b int) int64 {
	if b < 1<<latSubBits {
		return int64(b)
	}
	oct := b>>latSubBits + latSubBits - 1
	if oct >= 62 { // 2^62ns ≈ 146 years: unreachable, avoid overflow
		return 1<<63 - 1
	}
	sub := int64(b&(1<<latSubBits-1)) + 1
	return (1<<oct + sub<<(oct-latSubBits)) - 1
}

// Record notes one observation.
func (l *LatencyRecorder) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	l.count.Add(1)
	l.sumNs.Add(ns)
	for {
		cur := l.maxNs.Load()
		if ns <= cur || l.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	l.buckets[bucketOf(ns)].Add(1)
}

// Count returns the number of observations so far.
func (l *LatencyRecorder) Count() int64 { return l.count.Load() }

// Reset clears the distribution. Resets racing concurrent Records are not
// atomic — a Record in flight may land partly before and partly after — so
// Reset is for windowed control/benchmark reads (the adaptive batching
// controller, the serving bench's warmup cut), where an off-by-one
// observation is noise, not for exact accounting.
func (l *LatencyRecorder) Reset() {
	l.count.Store(0)
	l.sumNs.Store(0)
	l.maxNs.Store(0)
	for i := range l.buckets {
		l.buckets[i].Store(0)
	}
}

// Mean returns the mean observed latency (zero before any observation).
func (l *LatencyRecorder) Mean() time.Duration {
	n := l.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(l.sumNs.Load() / n)
}

// Max returns the largest observed latency.
func (l *LatencyRecorder) Max() time.Duration { return time.Duration(l.maxNs.Load()) }

// Quantile returns an upper estimate of the q-quantile (q in [0, 1]): the
// upper bound of the bucket containing the q·count-th observation, so the
// true quantile is never under-reported and over-reporting is bounded by
// the bucket width (~12.5%). Zero before any observation. Concurrent
// Records move the distribution while it is read; the estimate is then
// correct for some interleaving, which is all a monitoring read needs.
func (l *LatencyRecorder) Quantile(q float64) time.Duration {
	total := l.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for b := 0; b < latBuckets; b++ {
		seen += l.buckets[b].Load()
		if seen > rank {
			up := bucketUpper(b)
			if m := l.maxNs.Load(); up > m {
				up = m // the last occupied bucket never exceeds the max
			}
			return time.Duration(up)
		}
	}
	return time.Duration(l.maxNs.Load())
}

// ServingStats is a point-in-time snapshot of a prediction runtime's
// behaviour: request/batch counts, the dynamic batcher's achieved
// occupancy, queueing pressure, and latency quantiles. Durations are
// reported in milliseconds for direct JSON/dashboard use.
type ServingStats struct {
	// Requests and Batches count completed work; Rejected counts requests
	// refused because the runtime was shutting down; Shed counts requests
	// refused under overload (full queue with ShedOnFull, or a request
	// that could not meet AdmitDeadline).
	Requests int64 `json:"requests"`
	Batches  int64 `json:"batches"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// BatchOccupancy is mean requests per dispatched batch — the dynamic
	// batcher's efficiency, in (0, MaxBatch].
	BatchOccupancy float64 `json:"batch_occupancy"`
	// QueueDepth and QueuePeak are the current and high-water number of
	// requests waiting to be batched.
	QueueDepth int `json:"queue_depth"`
	QueuePeak  int `json:"queue_peak"`
	// Request latency (enqueue to reply) quantiles.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
	// Batch service time (replica forward pass) quantiles: the latency
	// floor one full batch adds ahead of a request.
	ServiceP50Ms float64 `json:"service_p50_ms"`
	ServiceP99Ms float64 `json:"service_p99_ms"`
	// ModelVersion is the snapshot round of the model replicas currently
	// serve (see core.Snapshot).
	ModelVersion int64 `json:"model_version"`
	// ModelSwaps counts hot model updates applied since start.
	ModelSwaps int64 `json:"model_swaps"`
	// Replicas is the live replica count (equal to the configured count
	// unless autoscaling is on); Resizes counts autoscaler replica-count
	// changes applied since start.
	Replicas int   `json:"replicas"`
	Resizes  int64 `json:"resizes"`
	// Adaptive batching state (zero/false when no SLO is configured):
	// SLOMs is the p99 target, CurMaxBatch/CurMaxDelayMs the controller's
	// current batch ceiling and straggler wait, and SLOBreaches the number
	// of decision windows whose measured p99 exceeded the SLO.
	SLOMs         float64 `json:"slo_ms,omitempty"`
	CurMaxBatch   int     `json:"cur_max_batch,omitempty"`
	CurMaxDelayMs float64 `json:"cur_max_delay_ms,omitempty"`
	SLOBreaches   int64   `json:"slo_breaches,omitempty"`
}

// FeedStats describes a snapshot feed — the delta-distribution channel
// between one publisher and its follower fleet (DESIGN.md §16). The same
// struct serves both ends: a publisher counts what it sent, a follower what
// it received and applied.
type FeedStats struct {
	// Subscribers is the publisher's current follower count (zero on the
	// follower side).
	Subscribers int `json:"subscribers"`
	// Published counts snapshots offered to the feed; Rounds is the latest
	// round published or applied.
	Published int64 `json:"published"`
	Round     int64 `json:"round"`
	// FullSent/DeltaSent count per-subscriber transmissions by kind, and
	// FullBytes/DeltaBytes their payload volume. On the follower side the
	// same fields count receptions.
	FullSent   int64 `json:"full_sent"`
	DeltaSent  int64 `json:"delta_sent"`
	FullBytes  int64 `json:"full_bytes"`
	DeltaBytes int64 `json:"delta_bytes"`
	// Resyncs counts full snapshots forced by divergence (a subscriber
	// whose acknowledged CRC stopped matching the published round, or a
	// delta the follower had to reject at the base check).
	Resyncs int64 `json:"resyncs"`
	// Redials counts follower reconnection attempts after a lost feed.
	Redials int64 `json:"redials"`
}

// Ms converts a duration to float milliseconds (the ServingStats unit).
func Ms(d time.Duration) float64 { return float64(d) / 1e6 }
