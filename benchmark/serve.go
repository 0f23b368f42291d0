package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crossbow"
	"crossbow/internal/data"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// The serving workload: one replica, micro-batches of up to 8 with a 2 ms
// straggler wait, shedding instead of blocking when the queue is full. The
// queue holds 256 requests — 60 ms of the mid rate — because the reference
// box freezes for 20-40 ms now and then, and the default depth of 32 turns
// each freeze into refused requests that say nothing about the program.
// Requests are answered late when they take more than limitMs from their due
// time.
//
// The forward pass runs on one kernel thread (the served model is trained
// with KernelThreads 1, and that budget is process-wide) and the closed loop
// has exactly one batch of callers: one busy thread and a few parked ones on
// a two-core box, so the second core carries the load generator instead of
// competing with it. It is also the faster setting here (README.md, finding
// 6).
const (
	serveMaxBatch  = 8
	serveMaxDelay  = 2 * time.Millisecond
	serveQueue     = 256
	limitMs        = 10.0
	serveSenders   = 64
	serveClients   = serveMaxBatch // closed-loop capacity phase: one batch of callers
	serveThreads   = 1             // kernel worker budget while serving
	swapEvery      = 50 * time.Millisecond
	servedEpochs   = 3 // the served model is a 3-epoch train-resnet32 run
	samplePoolSize = 256
	versionA       = 1
	versionB       = 2

	loRate, midRate = 500.0, 4000.0
	// Bursts stay below what the adaptive controller's smallest batch class
	// can serve: it only climbs a class after a 100 ms window has measured
	// the need, and refuses or delays requests until then, so bursts above
	// that are a workload on which operations fail.
	burstRate, lullRate = 3000.0, 500.0
	burstHalf           = 500 * time.Millisecond

	// Quantiles are taken per block of this many consecutive requests: ten
	// samples lie beyond a block's p99, and one frozen moment spoils one
	// block instead of the phase. A phase reports the quiet edge of its
	// blocks (quietTime).
	quantileBlock = 1000
	// maxLagMs is how late the generator may run (p99 of hand-off time minus
	// due time) before a phase's latencies stop meaning anything: a fifth of
	// the latency limit.
	maxLagMs = limitMs / 5
)

// The box's speed changes from one tenth of a second to the next and drifts
// over minutes (README.md, "The reference box"), so no phase runs in one
// stretch: each is cut into segments, the rounds below interleave the phases
// so each samples the whole run, and every segment gets a service of its own
// (started, measured, closed). A phase's numbers are taken over all its
// segments.
const serveRounds = 3

// segmentPlan is one round's segments at the given run length (20 s: per
// round lo 2 s, 8 capacity units, mid 0.83 s, 8 capacity units, swap 1 s,
// mid; after the rounds the adaptive service gets two segments of 1 s). A
// capacity unit is a segment of its own: Serve(), capRequests closed-loop
// requests, Close().
type segmentPlan struct {
	lo, mid, swap, adaptive time.Duration
	capUnits, capRequests   int
}

func planSegments(seconds int) segmentPlan {
	unit := time.Duration(seconds) * time.Second / 20
	return segmentPlan{
		lo: 6 * unit / serveRounds, mid: 5 * unit / (2 * serveRounds), swap: 3 * unit / serveRounds,
		adaptive: unit, capUnits: max(1, 2*seconds/5), capRequests: min(1000, 100*seconds),
	}
}

// blockQuantiles cuts v into consecutive blocks of quantileBlock values (a
// short tail joins the last block) and returns each block's q-quantile.
func blockQuantiles(v []float64, q float64) []float64 {
	var per []float64
	for lo := 0; lo < len(v); lo += quantileBlock {
		hi := lo + quantileBlock
		if len(v)-hi < quantileBlock {
			hi = len(v)
		}
		per = append(per, quantile(v[lo:hi], q))
		if hi == len(v) {
			break
		}
	}
	return per
}

// quietQuantile is the q-quantile at the quiet edge of v's blocks: what the
// latency is while the box leaves the program alone.
func quietQuantile(v []float64, q float64) float64 { return quietTime(blockQuantiles(v, q)) }

func serveConfig(params []float32, slo time.Duration) crossbow.ServeConfig {
	return crossbow.ServeConfig{
		Model: crossbow.ResNet32, Params: params, Version: versionA,
		Replicas: 1, MaxBatch: serveMaxBatch, MaxDelay: serveMaxDelay,
		QueueDepth: serveQueue, ShedOnFull: true, SLO: slo,
	}
}

// serveFixture is everything the serving phases need besides the service:
// the two models that are swapped, a pool of input samples, and for each
// (model, sample) the class a reference forward pass assigns.
type serveFixture struct {
	paramsA, paramsB []float32
	samples          [][]float32
	ref              map[int64][]int // version -> class per sample
	trainWall        float64
}

// buildServeFixture trains the served model with a short deterministic
// train-resnet32 run (model B is the snapshot one epoch before the end, A
// the final model) and computes the reference classes.
func buildServeFixture(seed uint64, seconds int) (*serveFixture, error) {
	s := trainSpecs[wlTrainResNet].sized(seconds)
	cfg := s.config(seed, servedEpochs)
	cfg.KernelThreads = serveThreads // process-wide: the services below inherit it; the trained bytes do not depend on it
	var mu sync.Mutex
	var snaps []crossbow.Snapshot
	cfg.PublishEvery = s.itersPerEpoch()
	cfg.OnSnapshot = func(sn crossbow.Snapshot) {
		mu.Lock()
		snaps = append(snaps, sn)
		mu.Unlock()
	}
	t0 := time.Now()
	res, err := crossbow.Train(cfg)
	if err != nil {
		return nil, fmt.Errorf("training the served model: %w", err)
	}
	f := &serveFixture{paramsA: res.Params, trainWall: time.Since(t0).Seconds(), ref: map[int64][]int{}}
	if len(snaps) != servedEpochs {
		return nil, fmt.Errorf("training published %d snapshots, want %d", len(snaps), servedEpochs)
	}
	f.paramsB = snaps[servedEpochs-2].Params

	_, test := data.Synthesize(data.ForModel(nn.ResNet32, seed, 0))
	for i := 0; i < samplePoolSize; i++ {
		f.samples = append(f.samples, test.Sample(i))
	}
	f.ref[versionA] = referenceClasses(f.paramsA, f.samples)
	f.ref[versionB] = referenceClasses(f.paramsB, f.samples)
	return f, nil
}

// referenceClasses classifies samples with a plain nn forward pass outside
// the serving engine.
func referenceClasses(params []float32, samples [][]float32) []int {
	const batch = serveMaxBatch
	net := nn.BuildScaled(nn.ResNet32, batch, tensor.NewRNG(1))
	net.Bind(params, make([]float32, len(params)))
	net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
	x := tensor.New(append([]int{batch}, net.InShape...)...)
	vol := len(samples[0])
	preds := make([]int, batch)
	out := make([]int, len(samples))
	for lo := 0; lo < len(samples); lo += batch {
		for b := 0; b < batch; b++ {
			copy(x.Data()[b*vol:(b+1)*vol], samples[min(lo+b, len(samples)-1)])
		}
		net.Predict(x, preds, nil)
		copy(out[lo:min(lo+batch, len(samples))], preds)
	}
	return out
}

// requester returns the do function of a phase: request i predicts sample
// i mod pool and is correct when the class matches the reference for the
// version the answer reports.
func (f *serveFixture) requester(p *crossbow.Predictor) func(i int) outcome {
	return func(i int) outcome {
		si := i % len(f.samples)
		pred, err := p.Predict(f.samples[si])
		switch {
		case errors.Is(err, crossbow.ErrOverloaded):
			return reqShed
		case err != nil:
			return reqFailed
		}
		ref, ok := f.ref[pred.Version]
		if !ok || ref[si] != pred.Class {
			return reqFailed
		}
		return reqOK
	}
}

// timed is one call's start and duration.
type timed struct {
	at time.Time
	us float64
}

func durationsOf(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.us
	}
	return out
}

// swapper alternates the served model between A and B every swapEvery until
// stop is closed, and returns when each UpdateParams ran and how long it took.
func (f *serveFixture) swapper(p *crossbow.Predictor, stop <-chan struct{}) []timed {
	var took []timed
	next := time.Now().Add(swapEvery)
	for n := 0; ; n++ {
		sleepUntil(next)
		select {
		case <-stop:
			return took
		default:
		}
		params, version := f.paramsB, int64(versionB)
		if n%2 == 1 {
			params, version = f.paramsA, versionA
		}
		t0 := time.Now()
		if err := p.UpdateParams(params, version); err != nil {
			panic(err) // the shapes are the trained model's own
		}
		took = append(took, timed{t0, float64(time.Since(t0)) / 1e3})
		next = next.Add(swapEvery)
	}
}

// start brings up a service on a copy of model A (the service takes
// ownership of its parameter vector) and answers one request; the wall is
// Serve() to that first answer. A zero slo is the static batcher.
func (f *serveFixture) start(slo time.Duration) (*crossbow.Predictor, float64, error) {
	t0 := time.Now()
	p, err := crossbow.Serve(serveConfig(append([]float32(nil), f.paramsA...), slo))
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.Predict(f.samples[0]); err != nil {
		p.Close()
		return nil, 0, fmt.Errorf("first Predict: %w", err)
	}
	return p, time.Since(t0).Seconds(), nil
}

// segment is one service instance's share of a phase: what the load
// generator recorded, the instance's own counters, and its start and close
// walls.
type segment struct {
	phase string
	*phaseResult
	stats                crossbow.ServingStats
	swaps                []timed
	startWall, closeWall float64
}

// serveRun is everything one pass through the serving workload measured.
type serveRun struct {
	fixture  *serveFixture
	setups   []float64
	segments []*segment
}

// segment runs body against a fresh service and closes it.
func (run *serveRun) segment(phase string, slo time.Duration, body func(p *crossbow.Predictor, seg *segment)) error {
	p, wall, err := run.fixture.start(slo)
	if err != nil {
		return err
	}
	seg := &segment{phase: phase, startWall: wall}
	body(p, seg)
	seg.stats = p.Stats()
	t0 := time.Now()
	p.Close()
	seg.closeWall = time.Since(t0).Seconds()
	run.segments = append(run.segments, seg)
	return nil
}

// measureServe runs the whole serving workload once.
func measureServe(seed uint64, seconds int) (*serveRun, error) {
	f, err := buildServeFixture(seed, seconds)
	if err != nil {
		return nil, err
	}
	run := &serveRun{fixture: f}
	rng := rand.New(rand.NewSource(int64(seed)))
	plan := planSegments(seconds)

	// Set-up: Serve() to the first answered request, many times (it takes
	// milliseconds).
	for i := 0; i < 4*setupReps(seconds); i++ {
		p, wall, err := f.start(0)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, wall)
		p.Close()
	}

	open := func(phase string, slo time.Duration, schedule []time.Duration) error {
		return run.segment(phase, slo, func(p *crossbow.Predictor, seg *segment) {
			seg.phaseResult = openLoop(schedule, serveSenders, f.requester(p))
		})
	}
	capacity := func() error {
		for u := 0; u < plan.capUnits; u++ {
			err := run.segment("cap", 0, func(p *crossbow.Predictor, seg *segment) {
				seg.phaseResult = closedLoop(plan.capRequests, serveClients, f.requester(p))
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	swap := func() error {
		return run.segment("swap", 0, func(p *crossbow.Predictor, seg *segment) {
			stop := make(chan struct{})
			done := make(chan []timed)
			go func() { done <- f.swapper(p, stop) }()
			seg.phaseResult = openLoop(poissonSchedule(rng, midRate, plan.swap), serveSenders, f.requester(p))
			close(stop)
			seg.swaps = <-done
		})
	}
	mid := func() error { return open("mid", 0, poissonSchedule(rng, midRate, plan.mid)) }
	for round := 0; round < serveRounds; round++ {
		steps := []func() error{
			func() error { return open("lo", 0, poissonSchedule(rng, loRate, plan.lo)) },
			capacity, mid, capacity, swap, mid,
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, err
			}
		}
	}
	// The adaptive controller under bursts.
	slo := time.Duration(limitMs * float64(time.Millisecond))
	for i := 0; i < 2; i++ {
		if err := open("adaptive", slo, onOffSchedule(rng, burstRate, lullRate, burstHalf, plan.adaptive)); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// servePhase is a phase's segments taken together.
type servePhase struct {
	name        string
	phaseResult                       // the segments' requests, concatenated in run order
	stats       crossbow.ServingStats // counters summed, peaks maxed, quantiles the median segment's
	swaps       []timed
}

func (run *serveRun) phase(name string) servePhase {
	ph := servePhase{name: name}
	var svc50, svc99 []float64
	for _, seg := range run.segments {
		if seg.phase != name {
			continue
		}
		ph.latencyMs = append(ph.latencyMs, seg.latencyMs...)
		ph.lagMs = append(ph.lagMs, seg.lagMs...)
		ph.outcomes = append(ph.outcomes, seg.outcomes...)
		ph.wall += seg.wall
		ph.swaps = append(ph.swaps, seg.swaps...)
		ph.stats.Requests += seg.stats.Requests
		ph.stats.Batches += seg.stats.Batches
		ph.stats.Shed += seg.stats.Shed
		ph.stats.ModelSwaps += seg.stats.ModelSwaps
		ph.stats.SLOBreaches += seg.stats.SLOBreaches
		ph.stats.QueuePeak = max(ph.stats.QueuePeak, seg.stats.QueuePeak)
		ph.stats.CurMaxBatch = seg.stats.CurMaxBatch
		svc50, svc99 = append(svc50, seg.stats.ServiceP50Ms), append(svc99, seg.stats.ServiceP99Ms)
	}
	if ph.stats.Batches > 0 {
		ph.stats.BatchOccupancy = float64(ph.stats.Requests) / float64(ph.stats.Batches)
	}
	ph.stats.ServiceP50Ms, ph.stats.ServiceP99Ms = median(svc50), median(svc99)
	return ph
}

func (run *serveRun) openPhases() []servePhase {
	return []servePhase{run.phase("lo"), run.phase("mid"), run.phase("swap"), run.phase("adaptive")}
}

// capacity is the closed-loop result over the capacity units (one service
// instance each): requests answered per second at the quiet edge of the
// units, and the wall of all the units' fixed work — Serve() to the first
// answer, the closed-loop requests, Close() — at the same edge.
func (run *serveRun) capacity() (rps, wall float64, rates []float64) {
	var walls []float64
	for _, seg := range run.segments {
		if seg.phase == "cap" {
			rates = append(rates, float64(seg.count(reqOK))/seg.wall.Seconds())
			walls = append(walls, seg.startWall+seg.wall.Seconds()+seg.closeWall)
		}
	}
	return quietRate(rates), float64(len(walls)) * quietTime(walls), rates
}

// runServe is the untraced run of the serving workload.
func runServe(seed uint64, seconds int, r *report) error {
	run, err := measureServe(seed, seconds)
	if err != nil {
		return err
	}
	r.set("setup_s", quietTime(run.setups), len(run.setups))

	phases := run.openPhases()
	lo, mid, swap := phases[0], phases[1], phases[2]
	midLat := mid.limitLatencies(limitMs)
	r.set("serve_p50_ms", quietQuantile(midLat, 0.5), len(midLat))
	r.set("serve_p99_ms", quietQuantile(midLat, 0.99), len(midLat))
	r.set("serve_lo_p99_ms", quietQuantile(lo.limitLatencies(limitMs), 0.99), len(lo.outcomes))
	r.set("serve_swap_p99_ms", quietQuantile(swap.limitLatencies(limitMs), 0.99), len(swap.outcomes))

	due, ok := 0, 0
	for _, ph := range phases {
		due += len(ph.outcomes)
		ok += ph.within(limitMs)
		reportPhase(ph, r)
	}
	r.set("serve_ok_share", float64(ok)/float64(max(1, due)), due)

	capPhase := run.reportCapacity(r)
	rps, wall, rates := run.capacity()
	units := len(rates)
	r.set("serve_capacity_rps", rps, units)
	r.set("serve_wall_s", wall, units)
	r.check(int(swap.stats.ModelSwaps) == len(swap.swaps) && len(swap.swaps) > 0,
		"swap phase applied %d of %d model updates", swap.stats.ModelSwaps, len(swap.swaps))
	r.notef("phase cap      %d closed-loop requests by %d clients in %d units, %.3f s in all (%.0f 1/s over the whole phase; units min %.0f p10 %.0f p50 %.0f p90 %.0f max %.0f 1/s); %d model swaps in the swap phase; served model trained in %.3f s; %d service instances",
		len(capPhase.outcomes), serveClients, units, capPhase.wall.Seconds(), float64(capPhase.count(reqOK))/capPhase.wall.Seconds(),
		quantile(rates, 0), quantile(rates, 0.1), median(rates), quantile(rates, 0.9), quantile(rates, 1), len(swap.swaps), run.fixture.trainWall, len(run.segments))
	return nil
}

// reportCapacity books the closed-loop requests as operations and returns
// the capacity segments taken together.
func (run *serveRun) reportCapacity(r *report) servePhase {
	ph := run.phase("cap")
	n, shed, failed := len(ph.outcomes), ph.count(reqShed), ph.count(reqFailed)
	r.opsf(n, shed+failed, "phase cap: %d shed, %d failed or wrong of %d", shed, failed, n)
	return ph
}

// reportPhase books one open-loop phase: its requests as operations (refused
// and wrong answers fail; late ones only lower serve_ok_share) and a line of
// detail. A generator that ran late makes the phase's latencies meaningless;
// that is the box's doing, not the program's, so it is flagged here and
// reported as serve.gen_lag_ms_p99 instead of failing the run.
func reportPhase(ph servePhase, r *report) {
	n := len(ph.outcomes)
	shed, failed := ph.count(reqShed), ph.count(reqFailed)
	r.opsf(n, shed+failed, "phase %s: %d shed, %d failed or wrong of %d due", ph.name, shed, failed, n)
	lag := median(blockQuantiles(ph.lagMs, 0.99)) // the generator's own lateness gets no benefit of the doubt
	lat := ph.limitLatencies(limitMs)
	line := fmt.Sprintf("phase %-8s due %6d ok-within-limit %6d late %5d shed %d failed %d | p50 %.3f p99 %.3f ms | gen lag p99 %.3f ms | occupancy %.2f",
		ph.name, n, ph.within(limitMs), n-ph.within(limitMs)-shed-failed, shed, failed,
		quietQuantile(lat, 0.5), quietQuantile(lat, 0.99), lag, ph.stats.BatchOccupancy)
	if label, v := tailQuantile(lat); label == "p99.9" {
		line += fmt.Sprintf(" | p99.9 %.3f ms (n=%d, whole phase, not gated)", v, n)
	}
	if lag > maxLagMs {
		line += fmt.Sprintf(" | GENERATOR LAGGED (limit %.1f ms): do not trust this phase's latencies", maxLagMs)
	}
	r.notef("%s", line)
}
