package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"crossbow"
	"crossbow/internal/metrics"
)

// tracedShare is the part of an untraced run's epochs the traced run trains,
// twice over: once through the public API as the untraced reference (for the
// CRC check and the tracing overhead) and once through the benchmark's own
// wiring with spans on.
const tracedShare = 0.4

// tracedRun is one traced training phase: every rank's result and lanes.
type tracedRun struct {
	results []*tracedResult
	traces  []*rankTrace
}

// traceRanks runs one traced phase: a single server, or s.ranks in-process
// ranks over loopback TCP.
func traceRanks(t *tracer, phase string, s trainSpec, seed uint64, epochs int, overlap bool) (*tracedRun, error) {
	ranks := max(1, s.ranks)
	run := &tracedRun{results: make([]*tracedResult, ranks), traces: make([]*rankTrace, ranks)}
	for rank := range run.traces {
		run.traces[rank] = newRankTrace(t, phase, rank, s, epochs)
	}
	if s.ranks == 0 {
		var err error
		run.results[0], err = tracedTrain(s, seed, epochs, nil, run.traces[0])
		return run, err
	}
	addrs, lns, err := listeners(ranks)
	if err != nil {
		return nil, err
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			link := &clusterLink{rank: rank, overlap: overlap, cfg: transportConfig(rank, addrs, lns[rank])}
			run.results[rank], errs[rank] = tracedTrain(s, seed, epochs, link, run.traces[rank])
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return run, nil
}

// epochWalls returns each epoch's wall in seconds: the slowest rank's.
func (run *tracedRun) epochWalls() []float64 {
	var out []float64
	for _, rt := range run.traces {
		for i, e := range rt.main.of(spEpoch) {
			if i == len(out) {
				out = append(out, 0)
			}
			out[i] = max(out[i], e.dur()/1e9)
		}
	}
	return out
}

// pooled returns the durations (µs) of one span kind over every rank's
// learner lanes, or over the main and round lanes for the kinds that live
// there.
func (run *tracedRun) pooled(kind spanKind) []float64 {
	var out []float64
	for _, rt := range run.traces {
		out = append(out, rt.main.durations(kind)...)
		out = append(out, rt.round.durations(kind)...)
		for _, l := range rt.learner {
			out = append(out, l.durations(kind)...)
		}
	}
	return out
}

// iteration is one lockstep iteration of one rank, reconstructed from its
// spans. Times in µs.
type iteration struct {
	wall     float64 // previous iteration's end (or the epoch's start) to this one's
	slowest  float64 // the slowest learner's acquire+task+release
	nn, mem  float64 // that learner's task, and its acquire+release
	skew     float64 // last task end − first task end
	step     float64 // the optimiser step, exchange excluded
	exchange float64 // time inside the exchanger, wherever it was called from
	publish  float64 // the publish hook, exchange excluded
}

// lockstepIterations rebuilds a rank's iterations. It returns nil when spans
// were dropped and the lanes no longer line up.
func lockstepIterations(rt *rankTrace) []iteration {
	type triple struct{ acq, task, rel span }
	perLearner := make([][]triple, len(rt.learner))
	for j, l := range rt.learner {
		acq, task, rel := l.of(spAcquire), l.of(spTask), l.of(spRelease)
		if len(acq) != len(task) || len(task) != len(rel) {
			return nil
		}
		for i := range task {
			perLearner[j] = append(perLearner[j], triple{acq[i], task[i], rel[i]})
		}
	}
	var its []iteration
	var boundary int64
	cur := -1 // index into its of the iteration the main lane is in
	for _, s := range rt.main.spans {
		switch s.kind {
		case spEpoch:
			boundary = s.start
		case spStep:
			its = append(its, iteration{step: s.dur() / 1e3})
			cur = len(its) - 1
			its[cur].wall = float64(s.end-boundary) / 1e3
			boundary = s.end
		case spPublish:
			if cur >= 0 {
				its[cur].publish += s.dur() / 1e3
				its[cur].wall += float64(s.end-boundary) / 1e3
				boundary = s.end
			}
		case spAllReduce, spBeginAllReduce:
			// Charge the exchange to the iteration it blocked, and take it out
			// of the span it ran inside.
			if cur < 0 || s.parent < 0 {
				continue
			}
			d := s.dur() / 1e3
			its[cur].exchange += d
			switch rt.main.spans[s.parent].kind {
			case spStep:
				its[cur].step -= d
			case spPublish:
				its[cur].publish -= d
			}
		}
	}
	for j := range perLearner {
		if len(perLearner[j]) != len(its) {
			return nil
		}
	}
	for i := range its {
		first, last := int64(math.MaxInt64), int64(0)
		for j := range perLearner {
			t := perLearner[j][i]
			if d := float64(t.rel.end-t.acq.start) / 1e3; d > its[i].slowest {
				its[i].slowest = d
				its[i].nn = t.task.dur() / 1e3
				its[i].mem = (t.acq.dur() + t.rel.dur()) / 1e3
			}
			first, last = min(first, t.task.end), max(last, t.task.end)
		}
		its[i].skew = float64(last-first) / 1e3
	}
	return its
}

// cost is one line of the wall-clock breakdown.
type cost struct {
	name string
	us   float64 // per epoch
	gemm bool
}

// breakdown attributes a rank's mean epoch wall (returned in µs) to the
// layers on its blocking path and returns the lines plus the share nothing
// accounts for.
// Under lockstep the path is, per iteration, the slowest learner's task, then
// the step (and exchange, and publish); under FCFS there is no single path,
// so it is the mean learner's own time line, with the round folds (which run
// on whichever learner completes a round) shared out evenly.
func breakdown(rt *rankTrace, its []iteration, kernels map[string]float64) (lines []cost, wall, unattributed float64) {
	epochs := rt.main.of(spEpoch)
	for _, e := range epochs {
		wall += e.dur() / 1e3
	}
	n := float64(len(epochs))
	wall /= n

	var nnUS, memUS, stepUS, exchUS, pubUS, tasksOnPath float64
	if its != nil {
		for _, it := range its {
			nnUS += it.nn
			memUS += it.mem
			stepUS += it.step
			exchUS += it.exchange
			pubUS += it.publish
		}
		tasksOnPath = float64(len(its))
	} else {
		k := float64(len(rt.learner))
		for _, l := range rt.learner {
			nnUS += sum(l.durations(spTask)) / k
			memUS += (sum(l.durations(spAcquire)) + sum(l.durations(spRelease))) / k
			stepUS += (sum(l.durations(spLocalStep)) + sum(l.durations(spContribute))) / k
			tasksOnPath += float64(len(l.of(spTask))) / k
		}
		stepUS += sum(rt.round.durations(spApply)) / k
		pubUS = sum(rt.round.durations(spPublish)) / k
	}
	perEpoch := func(v float64) float64 { return v / n }
	// Split the task into kernel classes with the isolated replay; what the
	// replay does not cover is the rest of nn (layer glue, batch-norm,
	// pooling, loss, buffer staging).
	tasks := perEpoch(tasksOnPath)
	gemm := kernels["gemm"] * tasks
	im2col := kernels["im2col"] * tasks
	col2im := kernels["col2im"] * tasks
	elem := kernels["elem"] * tasks
	lines = []cost{
		{"tensor: GEMM (isolated replay)", gemm, true},
		{"tensor: im2col", im2col, false},
		{"tensor: col2im", col2im, false},
		{"tensor: relu/residual elementwise", elem, false},
		{"nn: rest of the task (layer glue, batch-norm, pooling, loss)", perEpoch(nnUS) - gemm - im2col - col2im - elem, false},
		{"memplan: acquire/attach + release", perEpoch(memUS), false},
		{"core: optimiser step / contribute / apply", perEpoch(stepUS), false},
		{"transport: global exchange", perEpoch(exchUS), false},
		{"core: publish", perEpoch(pubUS), false},
	}
	attributed := 0.0
	for _, c := range lines {
		attributed += c.us
	}
	return lines, wall, 1 - attributed/wall
}

// reference is the untraced run the traced one is held against: the same
// seed and epochs through the public API.
type reference struct {
	epochSecs []float64
	crc       uint32
	mem       metrics.MemoryStats
}

func trainReference(s trainSpec, seed uint64, epochs int) (*reference, error) {
	if s.ranks > 0 {
		run, err := trainCluster(s, seed, epochs, s.trainSamples, false, nil)
		if err != nil {
			return nil, err
		}
		return &reference{clusterEpochSecs(run.results), crcOf(run.results[0].Params), run.results[0].Mem}, nil
	}
	res, err := crossbow.Train(s.config(seed, epochs))
	if err != nil {
		return nil, err
	}
	return &reference{epochSecs(res.Wall), crcOf(res.Params), res.Mem}, nil
}

// traceTrain is the traced run of the three training workloads.
func traceTrain(s trainSpec, o runOptions, r *report) error {
	perCall := s.epochs(o.seconds)
	epochs := max(2, min(perCall, int(math.Round(float64(perCall*s.calls())*tracedShare))))
	ref, err := trainReference(s, o.seed, epochs)
	if err != nil {
		return fmt.Errorf("untraced reference: %w", err)
	}
	t := newTracer()
	run, err := traceRanks(t, "sync", s, o.seed, epochs, false)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	var overlapRun *tracedRun
	if s.ranks > 0 {
		if overlapRun, err = traceRanks(t, "overlap", s, o.seed, epochs, true); err != nil {
			return fmt.Errorf("traced overlap run: %w", err)
		}
	}
	r.ops(epochs*s.itersPerEpoch(), 0)
	r.check(t.dropped() == 0, "%d spans did not fit their lane", t.dropped())

	// Correctness: the benchmark's wiring is the same computation.
	res0 := run.results[0]
	if s.sched == crossbow.Lockstep {
		r.check(crcOf(res0.params) == ref.crc, "traced wiring diverged from crossbow.Train: crc %08x vs %08x", crcOf(res0.params), ref.crc)
	}
	for rank, res := range run.results {
		r.check(crcOf(res.params) == crcOf(res0.params), "rank %d disagrees with rank 0 on the final parameters", rank)
		r.check(lossesFinite(res.series), "rank %d: a training loss is not finite", rank)
	}
	if overlapRun != nil {
		r.check(crcOf(overlapRun.results[0].params) == crcOf(res0.params), "overlapped exchange changed the trajectory")
	}

	walls := run.epochWalls()
	medWall := median(walls)
	r.set("bench.trace_overhead_pct", 100*(medWall/median(ref.epochSecs)-1), len(walls))
	r.set("engine.epoch_s_p90", quantile(walls, 0.9), len(walls))
	r.set("mem.allocs_per_iter", ref.mem.AllocsPerIter, epochs*s.itersPerEpoch())
	r.set("mem.gc_pause_ms", float64(ref.mem.GCPauseNs)/1e6, int(ref.mem.NumGC))

	// Probes, with nothing else running.
	r.set("data.stage_headroom_x", probeData(s, o.seed, o.seconds, r)/(float64(s.learners*s.itersPerEpoch())/medWall), len(walls))
	taskUS := probeNN(s, o.seed, o.seconds, r)
	probeTensor(s, taskUS, o.seconds, r)
	probePredict(s.model, res0.params, o.seconds, r)
	if err := probeSim(s.config(o.seed, 1), r); err != nil {
		return err
	}
	if s.ranks > 0 {
		if err := probeIdleAllReduce(s.ranks, len(res0.params), o.seconds, r); err != nil {
			return fmt.Errorf("idle all-reduce: %w", err)
		}
	}

	its := spanMetrics(s, run, epochs, r)
	pool := res0.pool
	r.set("memplan.pool_hit_rate", float64(pool.Reuses)/float64(max(1, pool.Allocs+pool.Reuses)), pool.Allocs+pool.Reuses)
	r.set("memplan.budget_waits", float64(pool.BudgetWaits), 1)
	r.set("memplan.pool_peak_bytes", float64(pool.PeakBytes), 1)
	r.set("memplan.arena_bytes_per_task", float64(res0.plan.ArenaBytes()), 1)
	if overlapRun != nil {
		transportMetrics(res0.transport, overlapRun.results[0].transport, r)
		r.notef("overlap phase: the exchange was waited for inside %s", waitSites(overlapRun.traces[0]))
	}

	kernels := map[string]float64{
		"gemm": r.get("tensor.gemm_us_per_task"), "im2col": r.get("tensor.im2col_us_per_task"),
		"col2im": r.get("tensor.col2im_us_per_task"), "elem": r.get("tensor.elem_us_per_task"),
	}
	rt0 := run.traces[0]
	lines, wallUS, unattributed := breakdown(rt0, its, kernels)
	r.set("engine.unattributed_share", unattributed, epochs)
	printBreakdown(r, wallUS, lines, unattributed, r.get("core.eval_s_per_epoch"))
	if k, cores := s.learners*max(1, s.ranks), runtime.GOMAXPROCS(0); k > cores {
		r.notef("  %d learners share %d cores: at least %.0f%% of a learner's time line is run-queue wait, which no span covers", k, cores, 100*(1-float64(cores)/float64(k)))
	}
	r.notef("drift over the run, last quarter of epochs / first quarter (median span): %s", drift(rt0))
	if err := t.write(o.traceOut); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	r.notef("spans written to %s (%d lanes)", o.traceOut, len(t.lanes))
	return nil
}

// spanMetrics turns the synchronous phase's spans into the engine, core, nn
// and memplan metrics, and returns rank 0's lockstep iterations (nil under
// FCFS) for the breakdown.
func spanMetrics(s trainSpec, run *tracedRun, epochs int, r *report) []iteration {
	n := float64(epochs * len(run.traces)) // busy time is per epoch per rank
	tasks := run.pooled(spTask)
	r.set("nn.task_us_p50", median(tasks), len(tasks))
	r.set("engine.task_busy_s", sum(tasks)/1e6/n, len(tasks))
	acq, rel := run.pooled(spAcquire), run.pooled(spRelease)
	r.set("engine.mem_busy_s", (sum(acq)+sum(rel))/1e6/n, len(acq)+len(rel))
	r.set("memplan.acquire_us_p50", median(acq), len(acq))
	r.set("memplan.acquire_us_p99", quantile(acq, 0.99), len(acq))
	evals := run.pooled(spEval)
	r.set("core.eval_s_per_epoch", mean(evals)/1e6, len(evals))
	stats := run.results[0].stats
	r.set("engine.round_waits", float64(stats.RoundWaits), 1)
	r.set("engine.max_lead_iters", float64(stats.MaxLeadIters), 1)

	if s.sched != crossbow.Lockstep {
		contrib, apply, local := run.pooled(spContribute), run.pooled(spApply), run.pooled(spLocalStep)
		r.set("core.sma_contribute_us_p50", median(contrib), len(contrib))
		r.set("core.sma_apply_us_p50", median(apply), len(apply))
		r.set("engine.sync_busy_s", (sum(contrib)+sum(apply)+sum(local))/1e6/n, len(contrib)+len(apply)+len(local))
		return nil
	}

	var its []iteration // rank 0's
	var steps, exchanges []float64
	syncBusy := 0.0
	for rank, rt := range run.traces {
		rankIts := lockstepIterations(rt)
		r.check(rankIts != nil, "rank %d: lockstep lanes do not line up iteration by iteration", rank)
		if rank == 0 {
			its = rankIts
		}
		for _, it := range rankIts {
			steps = append(steps, it.step)
			syncBusy += it.step + it.publish
			if it.exchange > 0 {
				exchanges = append(exchanges, it.exchange)
			}
		}
	}
	r.set("engine.sync_busy_s", syncBusy/1e6/n, len(steps))
	var skew, overhead []float64
	for _, it := range its {
		skew = append(skew, it.skew)
		overhead = append(overhead, it.wall-it.slowest-it.step-it.exchange-it.publish)
	}
	r.set("engine.barrier_skew_us_p50", median(skew), len(skew))
	r.set("engine.dispatch_overhead_us_p50", median(overhead), len(overhead))
	if s.ranks > 0 {
		r.set("core.dist_fold_us_p50", median(steps), len(steps))
		r.set("transport.allreduce_us_p50", median(exchanges), len(exchanges))
	} else {
		r.set("core.sma_step_us_p50", median(steps), len(steps))
		r.set("core.sma_share", sum(steps)/1e6/sum(run.epochWalls()), len(steps))
	}
	return its
}

// transportMetrics reports rank 0's transport counters: the synchronous
// phase's per-round costs, the overlapped phase's hidden share, and both
// phases' rounds as operations.
func transportMetrics(st, ot metrics.TransportStats, r *report) {
	rounds := float64(max(1, st.Rounds))
	r.set("transport.barrier_us_per_round", float64(st.BarrierWaitNs)/rounds/1e3, int(st.Rounds))
	r.set("transport.reduce_scatter_us_per_round", float64(st.ReduceScatterNs)/rounds/1e3, int(st.Rounds))
	r.set("transport.all_gather_us_per_round", float64(st.AllGatherNs)/rounds/1e3, int(st.Rounds))
	r.set("transport.frames_per_round", float64(st.FramesSent)/rounds, int(st.Rounds))
	r.set("transport.aborts", float64(st.Aborts+ot.Aborts), 2)
	r.set("transport.restart_rounds", float64(st.RestartRounds+ot.RestartRounds), 2)
	r.set("transport.overlap_hidden_share", float64(ot.OverlapHiddenNs)/float64(max(1, ot.OverlapHiddenNs+ot.OverlapBlockedNs)), int(ot.AsyncRounds))
	r.ops(int(st.Rounds+ot.Rounds), int(st.Aborts+st.RestartRounds+ot.Aborts+ot.RestartRounds))
}

// drift compares each span kind's median duration in the last quarter of the
// epochs with the first: a layer whose cost grows as training proceeds (the
// value-dependent slowdown of README.md, finding 3) shows here by name.
func drift(rt *rankTrace) string {
	var epochs []int // main-lane indices of the epoch spans, in order
	for i, s := range rt.main.spans {
		if s.kind == spEpoch {
			epochs = append(epochs, i)
		}
	}
	q := len(epochs) / 4
	if q == 0 {
		return "too few epochs"
	}
	early, late := int32(epochs[q-1]), int32(epochs[len(epochs)-q])
	lanes := append([]*lane{rt.main, rt.round}, rt.learner...)
	var parts []string
	for _, kind := range []spanKind{spTask, spStep, spLocalStep, spContribute, spApply, spAllReduce} {
		var first, last []float64
		for _, l := range lanes {
			for _, s := range l.spans {
				switch {
				case s.kind != kind || s.parent < 0:
				case s.parent <= early:
					first = append(first, s.dur())
				case s.parent >= late:
					last = append(last, s.dur())
				}
			}
		}
		if len(first) > 0 && len(last) > 0 {
			parts = append(parts, fmt.Sprintf("%s x%.2f", spanNames[kind], median(last)/median(first)))
		}
	}
	return strings.Join(parts, ", ")
}

// waitSites says where an overlapped exchange was waited for — the span the
// Wait ran inside — as shares of the total wait.
func waitSites(rt *rankTrace) string {
	by := map[string]float64{}
	var total float64
	for _, s := range rt.main.spans {
		if s.kind != spAllReduce {
			continue
		}
		site := "nothing (run end)"
		if s.parent >= 0 {
			site = spanNames[rt.main.spans[s.parent].kind]
		}
		by[site] += s.dur()
		total += s.dur()
	}
	var parts []string
	for site, d := range by {
		parts = append(parts, fmt.Sprintf("%s %.0f%%", site, 100*d/total))
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

// printBreakdown prints the per-epoch wall-clock attribution and names the
// three largest costs that are not GEMM.
func printBreakdown(r *report, wallUS float64, lines []cost, unattributed, evalSec float64) {
	r.notef("epoch wall %.4f s (rank 0, traced, mean), attributed along the blocking path:", wallUS/1e6)
	for _, c := range lines {
		r.notef("  %-62s %9.1f us/epoch %6.2f%%", c.name, c.us, 100*c.us/wallUS)
	}
	r.notef("  %-62s %9s          %6.2f%%  (engine: dispatch, barrier join, pipeline and round waits, run-queue wait)", "unattributed", "", 100*unattributed)
	rest := append([]cost(nil), lines...)
	rest = append(rest,
		cost{name: "engine: unattributed", us: unattributed * wallUS},
		cost{name: "core: evaluation (outside the epoch wall, inside train_wall_s)", us: evalSec * 1e6})
	sort.Slice(rest, func(i, j int) bool { return rest[i].us > rest[j].us })
	var top []string
	for _, c := range rest {
		if !c.gemm && len(top) < 3 {
			top = append(top, fmt.Sprintf("%s (%.1f ms/epoch)", c.name, c.us/1e3))
		}
	}
	r.notef("top three non-GEMM costs: %s", strings.Join(top, "; "))
}
