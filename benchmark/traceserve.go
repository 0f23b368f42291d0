package main

import (
	"fmt"
	"time"

	"crossbow/internal/nn"
)

// traceServe is the traced run of the serving workload. The load generator
// already keeps, for every request, when it was due and when it was
// answered, and for every model swap when it ran and how long it took; the
// traced run turns those records into spans after each phase has ended, so
// tracing costs the measured phases nothing (bench.trace_overhead_pct is zero
// by construction here). The per-layer numbers are the service's own
// counters, cut per phase, plus the forward pass timed alone.
func traceServe(o runOptions, r *report) error {
	run, err := measureServe(o.seed, o.seconds)
	if err != nil {
		return err
	}
	phases := run.openPhases()
	lo, mid, swap, adapt := phases[0], phases[1], phases[2], phases[3]
	lag := 0.0
	for _, ph := range phases {
		reportPhase(ph, r)
		lag = max(lag, median(blockQuantiles(ph.lagMs, 0.99)))
	}
	capPhase := run.reportCapacity(r)
	r.set("serve.gen_lag_ms_p99", lag, len(phases))
	r.set("bench.trace_overhead_pct", 0, 0)

	r.set("serve.batch_occupancy.lo", lo.stats.BatchOccupancy, int(lo.stats.Batches))
	r.set("serve.batch_occupancy.mid", mid.stats.BatchOccupancy, int(mid.stats.Batches))
	r.set("serve.service_p50_ms", capPhase.stats.ServiceP50Ms, int(capPhase.stats.Batches))
	r.set("serve.service_p99_ms", capPhase.stats.ServiceP99Ms, int(capPhase.stats.Batches))
	midLat := mid.limitLatencies(limitMs)
	r.set("serve.queue_fill_ms_p50", quietQuantile(midLat, 0.5)-mid.stats.ServiceP50Ms, len(midLat))
	r.set("serve.queue_peak", float64(max(lo.stats.QueuePeak, mid.stats.QueuePeak, swap.stats.QueuePeak)), 3)
	r.set("serve.shed", float64(lo.stats.Shed+mid.stats.Shed+swap.stats.Shed+adapt.stats.Shed+capPhase.stats.Shed), len(run.segments))
	r.set("serve.update_model_us_p50", median(durationsOf(swap.swaps)), len(swap.swaps))
	r.set("serve.swaps", float64(len(swap.swaps)), 1)
	r.set("serve.adaptive_p99_ms", quietQuantile(adapt.limitLatencies(limitMs), 0.99), len(adapt.outcomes))
	r.set("serve.adaptive_cur_batch", float64(adapt.stats.CurMaxBatch), 1)
	r.set("serve.slo_breaches", float64(adapt.stats.SLOBreaches), 1)
	probePredict(nn.ResNet32, run.fixture.paramsA, o.seconds, r)

	// Spans: one lane per open-loop segment for its requests, one for the
	// model swaps.
	t := &tracer{t0: run.segments[0].start}
	swapLane := t.lane("serve.swapper", 0, t.newGroup(), len(swap.swaps))
	for i, seg := range run.segments {
		if seg.due == nil {
			continue // closed loop: no schedule, no due times
		}
		l := t.lane(fmt.Sprintf("serve.%s.%d", seg.phase, i), 0, t.newGroup(), len(seg.due))
		for i, off := range seg.due {
			start := seg.start.Add(off).Sub(t.t0)
			l.spans = append(l.spans, span{kind: spRequest, parent: -1,
				start: int64(start), end: int64(start) + int64(seg.latencyMs[i]*1e6)})
		}
		for _, sw := range seg.swaps {
			start := sw.at.Sub(t.t0)
			swapLane.spans = append(swapLane.spans, span{kind: spUpdateModel, parent: -1, start: int64(start), end: int64(start + time.Duration(sw.us*1e3))})
		}
	}
	if err := t.write(o.traceOut); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	r.notef("spans written to %s (%d lanes)", o.traceOut, len(t.lanes))
	return nil
}
