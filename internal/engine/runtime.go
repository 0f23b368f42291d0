package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"crossbow/internal/data"
)

// This file implements the *wall-clock* task runtime: the task engine's
// architecture (a pool of learner workers bound to model replicas, batches
// staged by the §4.5 data pre-processors, synchronisation reacting to task
// completions) executing real forward/backward passes on the blocked
// kernels instead of simulated costs. The simulated engine (engine.go)
// predicts what a configuration costs on the modelled hardware; here the
// scheduling decisions play out in real time on real hardware.
//
// Two scheduling modes (§4.3):
//
//   - Lockstep: every iteration binds batch i·k+j to learner j and joins all
//     k tasks before the optimiser step. The learners run the round
//     themselves (lockstepEpoch): they meet at a barrier after their tasks,
//     each applies its shard of the step, and at a second barrier the last
//     arriver — every other learner stopped — does the round's serial work.
//     These are the pre-runtime trainer's semantics, kept as the
//     bit-deterministic oracle: for a fixed config the whole trajectory is
//     reproducible bit for bit at any worker count.
//
//   - FCFS: barrier-free. Learners pull whichever staged batch becomes
//     available first (the binding is first-come, first-served and recorded
//     in an assignment log), run ahead of the central average model by up to
//     τ iterations, and synchronise through per-learner contributions that
//     the round applier folds in learner-index order. Floating-point
//     accumulation order therefore depends only on the assignment log: a
//     run is reproducible given the log, and the log is the only
//     timing-dependent artefact.
//
// The runtime deliberately contains no optimiser math: the driver
// (internal/core) supplies closures for the forward/backward task, the
// lockstep optimiser step, and the FCFS contribution/application halves.
// This keeps the engine layer a pure scheduler, like the simulator.

// Mode selects the runtime's scheduling discipline.
type Mode string

// Runtime scheduling modes.
const (
	// ModeLockstep joins all learners at a barrier every iteration, before
	// and after the optimiser step (oracle semantics).
	ModeLockstep Mode = "lockstep"
	// ModeFCFS lets learners run barrier-free with FCFS batch binding.
	ModeFCFS Mode = "fcfs"
)

// RuntimeConfig wires a Runtime to its driver.
type RuntimeConfig struct {
	// Learners is the replica-pool size k.
	Learners int
	// Tau is the synchronisation period in iterations (≥ 1).
	Tau int
	// Mode selects Lockstep or FCFS scheduling.
	Mode Mode
	// Pipeline stages input batches (owned by the driver; the runtime never
	// closes it).
	Pipeline *data.Pipeline
	// Task runs learner j's forward/backward pass over a staged batch and
	// returns the loss. It must leave the gradient wherever the sync
	// closures below expect it; the runtime only schedules.
	Task func(j int, s *data.Slot) float64
	// AcquireTask, if set, runs on the learner's worker goroutine
	// immediately before each learning task: the driver uses it to check
	// learner j's planned task buffers out of the shared §4.5 pool
	// (memplan.OnlinePlanner) and attach them to the learner's network.
	// ReleaseTask returns them right after the task, before any
	// synchronisation work, so parked or waiting learners never hold task
	// memory — which is what lets the pool's footprint track actual
	// concurrency instead of learner count.
	AcquireTask func(j int)
	ReleaseTask func(j int)
	// Step applies the whole optimiser step across all learners after a
	// joined iteration (Lockstep mode only). It runs on whichever learner's
	// goroutine reached the iteration's barrier last, with every other
	// learner stopped there. Required unless BeginStep and StepShard are
	// set, which replace it.
	Step func()
	// BeginStep and StepShard are the step in sharded form, for optimisers
	// that can apply an iteration over disjoint parameter ranges (Lockstep
	// mode only; set both or neither). After the tasks of an iteration are
	// joined, BeginStep runs once with every learner stopped; then learner
	// j's goroutine runs StepShard(j), all k concurrently; the iteration
	// ends once all k returned. The k shards together must amount to one
	// Step.
	BeginStep func()
	StepShard func(j int)
	// Contribute is learner j's τ-boundary update (FCFS mode only): it
	// must compute the learner's correction against the central average
	// model AND apply the iteration's gradient step (drivers fuse the two
	// into one pass over the replica; the runtime does not call LocalStep
	// on boundary iterations). The runtime guarantees the average model is
	// stable for the duration of the call.
	Contribute func(j int)
	// Apply folds all k contributions of a round into the central average
	// model (FCFS mode only). Called exactly once per round, in a critical
	// section, after every learner's Contribute for that round returned;
	// implementations must fold in learner-index order for reproducibility.
	Apply func()
	// LocalStep applies learner j's gradient to its own replica on
	// non-boundary iterations (FCFS mode only; in Lockstep mode Step
	// covers it, and on boundary iterations Contribute does).
	LocalStep func(j int)
	// Publish, if set, runs once per synchronisation round, immediately
	// after the round is folded into the central average model and at a
	// point where the model is guaranteed stable: in lockstep mode right
	// after a τ-boundary step, on the goroutine of the learner that reached
	// the iteration's closing barrier last (every other learner is stopped
	// there and no task is in flight), in FCFS mode on the round-completing
	// learner's goroutine after Apply and *before* the round is published —
	// no learner can contribute to the next round until Publish returns, so
	// a driver may snapshot the average model without tearing. round counts
	// folded rounds, 1-based. Keep the body short (a version check and, on
	// publication rounds, one model copy): in FCFS mode it delays learners
	// parked at the round gate.
	Publish func(round int)
	// FirstSeq and Held resume consumption of a pipeline a predecessor
	// runtime already drew from (an online-autotuning resize): FirstSeq is
	// the predecessor's next sequence number and Held its still-checked-out
	// out-of-order slots. Both come from Handoff; zero values mean a fresh
	// pipeline.
	FirstSeq int
	Held     map[int]*data.Slot
}

// RuntimeStats describes one runtime's execution so far.
type RuntimeStats struct {
	// Rounds is the number of synchronisation rounds applied to the
	// central average model.
	Rounds int
	// RoundWaits counts contributions that had to block for a straggler's
	// previous round (FCFS; a lockstep iteration always joins, so the
	// counter stays zero there).
	RoundWaits int
	// MaxLeadIters is the largest observed lead, in iterations, of a
	// learner over the last applied round boundary (FCFS run-ahead; at most
	// 2τ by construction).
	MaxLeadIters int
	// Tasks counts learning tasks executed per learner.
	Tasks []int
}

// Runtime executes learning tasks over a replica pool of worker goroutines.
type Runtime struct {
	cfg  RuntimeConfig
	k    int
	tau  int
	work []chan func()
	done chan struct{}
	wg   sync.WaitGroup

	// epochFns[j] is learner j's whole epoch under the configured mode,
	// built once; left is how many iterations of the running epoch are
	// still to finish — set by RunEpoch, read by every learner as it
	// starts, counted down by the lockstep round.
	epochFns []func()
	left     int

	// Epoch-scoped loss accounting. Lockstep folds in the round's serial
	// section; FCFS folds per learner and sums in index order at the join.
	epochLoss float64
	epochN    int
	lossSum   []float64
	lossN     []int
	losses    []float64

	// Lockstep round state. held is the reorder buffer: staged slots kept
	// until their turn in the batcher's draw sequence; slots[j] is the one
	// bound to learner j for the iteration in flight. bar joins the learners
	// before and after each optimiser step.
	held    map[int]*data.Slot
	nextSeq int
	slots   []*data.Slot
	bar     *barrier

	// FCFS round state. zRound is the number of rounds folded into the
	// central average model (its version); contrib counts contributions to
	// the in-flight round. Both are atomics so the common case — the round
	// a learner wants is already published — costs one load and one add;
	// the mutex/cond pair only backs the slow path where a learner is a
	// full round ahead of a straggler and must park.
	mu      sync.Mutex
	cond    *sync.Cond
	zRound  atomic.Int64
	contrib atomic.Int64

	// iters[j] is learner j's lifetime iteration count; seqLog[j] the
	// sequence numbers of the batches it consumed, in consumption order.
	// Together they are the assignment log.
	iters  []int
	seqLog [][]int

	stats RuntimeStats
}

// NewRuntime validates cfg, builds the replica pool, and starts its worker
// goroutines. Callers must Close the runtime when done.
func NewRuntime(cfg RuntimeConfig) *Runtime {
	if cfg.Learners < 1 {
		panic("engine: Runtime needs at least one learner")
	}
	if cfg.Tau < 1 {
		cfg.Tau = 1
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeLockstep
	}
	if cfg.Pipeline == nil || cfg.Task == nil {
		panic("engine: Runtime needs a pipeline and a task")
	}
	switch cfg.Mode {
	case ModeLockstep:
		if (cfg.BeginStep == nil) != (cfg.StepShard == nil) {
			panic("engine: BeginStep and StepShard come together")
		}
		if cfg.Step == nil && cfg.StepShard == nil {
			panic("engine: lockstep mode needs a Step closure, or BeginStep and StepShard")
		}
	case ModeFCFS:
		if cfg.Contribute == nil || cfg.Apply == nil || cfg.LocalStep == nil {
			panic("engine: fcfs mode needs Contribute, Apply and LocalStep closures")
		}
	default:
		panic(fmt.Sprintf("engine: unknown runtime mode %q", cfg.Mode))
	}
	k := cfg.Learners
	r := &Runtime{
		cfg:     cfg,
		k:       k,
		tau:     cfg.Tau,
		work:    make([]chan func(), k),
		done:    make(chan struct{}, k),
		lossSum: make([]float64, k),
		lossN:   make([]int, k),
		losses:  make([]float64, k),
		held:    cfg.Held,
		nextSeq: cfg.FirstSeq,
		slots:   make([]*data.Slot, k),
		iters:   make([]int, k),
		seqLog:  make([][]int, k),
	}
	if r.held == nil {
		r.held = make(map[int]*data.Slot)
	}
	r.cond = sync.NewCond(&r.mu)
	r.stats.Tasks = make([]int, k)
	r.bar = newBarrier(k)
	epoch := r.fcfsEpoch
	if cfg.Mode == ModeLockstep {
		epoch = r.lockstepEpoch
	}
	r.epochFns = make([]func(), k)
	for j := 0; j < k; j++ {
		j := j
		r.epochFns[j] = func() { epoch(j); r.done <- struct{}{} }
	}
	for j := 0; j < k; j++ {
		r.work[j] = make(chan func())
		r.wg.Add(1)
		go func(ch chan func()) {
			defer r.wg.Done()
			for fn := range ch {
				fn()
			}
		}(r.work[j])
	}
	return r
}

// Close retires the replica pool. The pipeline stays with the driver.
func (r *Runtime) Close() {
	for _, ch := range r.work {
		close(ch)
	}
	r.wg.Wait()
}

// RunEpoch executes iters iterations per learner under the configured mode
// and blocks until every learner has finished them. On return all completed
// rounds are folded into the central model and no task is in flight, so the
// driver may evaluate, adapt hyper-parameters, or resize.
func (r *Runtime) RunEpoch(iters int) {
	if iters < 1 {
		return
	}
	r.left = iters
	if r.cfg.Mode == ModeLockstep {
		r.bindRound()
	}
	for j := 0; j < r.k; j++ {
		r.work[j] <- r.epochFns[j]
	}
	for j := 0; j < r.k; j++ {
		<-r.done
	}
	if r.cfg.Mode == ModeLockstep {
		return
	}
	// Fold per-learner losses in index order so the epoch loss depends only
	// on the assignment log.
	for j := 0; j < r.k; j++ {
		r.epochLoss += r.lossSum[j]
		r.epochN += r.lossN[j]
		r.lossSum[j], r.lossN[j] = 0, 0
	}
}

// TakeEpochLoss returns the loss sum and task count accumulated since the
// previous call, and resets them.
func (r *Runtime) TakeEpochLoss() (sum float64, n int) {
	sum, n = r.epochLoss, r.epochN
	r.epochLoss, r.epochN = 0, 0
	return sum, n
}

// Stats returns a snapshot of the runtime's execution statistics. Call at
// quiescence (no RunEpoch in flight).
func (r *Runtime) Stats() RuntimeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Tasks = append([]int(nil), r.stats.Tasks...)
	// A fast-path contribution (no park) runs exactly τ iterations ahead of
	// the model it corrects against; parked ones ran 2τ ahead.
	if s.Rounds > 0 && s.MaxLeadIters < r.tau && r.cfg.Mode == ModeFCFS {
		s.MaxLeadIters = r.tau
	}
	return s
}

// NextSeq returns the next staged-batch sequence number this runtime
// would consume. In lockstep mode that is the reorder buffer's position;
// in FCFS mode learners race for slots directly, so the position is the
// total task count plus FirstSeq.
func (r *Runtime) NextSeq() int {
	if r.cfg.Mode == ModeLockstep {
		return r.nextSeq
	}
	n := r.cfg.FirstSeq
	for _, t := range r.stats.Tasks {
		n += t
	}
	return n
}

// Handoff surrenders the runtime's pipeline position and any out-of-order
// staged slots its reorder buffer still holds, for transfer (as FirstSeq/
// Held) to a successor runtime over the same pipeline. Call at quiescence,
// before Close — without the transfer, held slots would never return to
// the pipeline and the successor would wait forever for their sequence
// numbers.
func (r *Runtime) Handoff() (firstSeq int, held map[int]*data.Slot) {
	held, r.held = r.held, make(map[int]*data.Slot)
	return r.NextSeq(), held
}

// SeqLog returns, per learner, the staged-batch sequence numbers it
// consumed, in consumption order: the assignment log that makes an FCFS run
// replayable. The returned slices are copies.
func (r *Runtime) SeqLog() [][]int {
	out := make([][]int, r.k)
	for j := range out {
		out[j] = append([]int(nil), r.seqLog[j]...)
	}
	return out
}

// lockstepEpoch is learner j's side of the oracle schedule: run the task
// bound to it, join, apply its shard of the step, join. No goroutine
// coordinates the round — whichever learner reaches a barrier last runs that
// barrier's serial section (BeginStep at the first, endRound at the second)
// while the others wait, so an iteration costs two barrier crossings and no
// hand-off to or from RunEpoch's goroutine, which is blocked for the whole
// epoch. A driver without a sharded step gets the same loop with one
// crossing: endRound runs its whole Step.
func (r *Runtime) lockstepEpoch(j int) {
	for n := r.left; n > 0; n-- {
		r.losses[j] = r.runTask(j, r.slots[j])
		if r.cfg.StepShard != nil {
			r.bar.await(r.cfg.BeginStep)
			r.cfg.StepShard(j)
		}
		r.bar.await(r.endRound)
	}
}

// endRound is the serial section that closes a lockstep iteration. It runs
// on the last learner to arrive, with the other k−1 stopped at the barrier
// and no task in flight: everything here — the slots, the loss fold in
// learner order, the counters, the driver's whole Step and its Publish
// window, the next binding in draw order — is single-threaded.
func (r *Runtime) endRound() {
	for j := 0; j < r.k; j++ {
		r.cfg.Pipeline.Release(r.slots[j])
		r.epochLoss += r.losses[j]
		r.stats.Tasks[j]++
		r.iters[j]++
	}
	r.epochN += r.k
	if r.cfg.StepShard == nil {
		r.cfg.Step()
	}
	if r.iters[0]%r.tau == 0 {
		r.stats.Rounds++
		if r.cfg.Publish != nil {
			r.cfg.Publish(r.stats.Rounds)
		}
	}
	if r.left--; r.left > 0 {
		r.bindRound()
	}
}

// bindRound binds the next k staged batches to learners 0…k−1 in draw order.
func (r *Runtime) bindRound() {
	for j := 0; j < r.k; j++ {
		r.slots[j] = r.nextOrdered()
		r.seqLog[j] = append(r.seqLog[j], r.slots[j].Seq)
	}
}

// runTask brackets one learning task with the driver's buffer-pool hooks:
// planned task memory is checked out for exactly the task's duration, on the
// worker goroutine, in both scheduling modes.
func (r *Runtime) runTask(j int, s *data.Slot) float64 {
	if r.cfg.AcquireTask != nil {
		r.cfg.AcquireTask(j)
	}
	loss := r.cfg.Task(j, s)
	if r.cfg.ReleaseTask != nil {
		r.cfg.ReleaseTask(j)
	}
	return loss
}

// nextOrdered returns staged slots in draw-sequence order, holding
// out-of-order arrivals until their turn.
func (r *Runtime) nextOrdered() *data.Slot {
	if s, ok := r.held[r.nextSeq]; ok {
		delete(r.held, r.nextSeq)
		r.nextSeq++
		return s
	}
	for {
		s, ok := r.cfg.Pipeline.Acquire()
		if !ok {
			panic("engine: pipeline closed during epoch")
		}
		if s.Seq == r.nextSeq {
			r.nextSeq++
			return s
		}
		r.held[s.Seq] = s
	}
}

// fcfsEpoch is learner j's barrier-free epoch: pull the next staged batch
// first-come-first-served, compute, contribute at τ-boundaries, step.
func (r *Runtime) fcfsEpoch(j int) {
	for t := r.left; t > 0; t-- {
		s, ok := r.cfg.Pipeline.Acquire()
		if !ok {
			panic("engine: pipeline closed during epoch")
		}
		r.seqLog[j] = append(r.seqLog[j], s.Seq)
		loss := r.runTask(j, s)
		r.cfg.Pipeline.Release(s)
		r.lossSum[j] += loss
		r.lossN[j]++
		i := r.iters[j] + 1
		if i%r.tau == 0 {
			// The τ-boundary exchange of Alg 1: correction (computed on
			// the replica as it stood at iteration start) fused with the
			// gradient step.
			r.contribute(j, i/r.tau-1)
		} else {
			r.cfg.LocalStep(j)
		}
		r.iters[j] = i
		r.stats.Tasks[j]++
	}
}

// contribute is the task-manager half of FCFS synchronisation: learner j
// deposits its round-c correction, and whichever learner completes a round
// folds it into the central model — in learner-index order via Apply — and
// wakes the pool. Learners park here only when a straggler is still a full
// round behind; the happens-before chain (atomic add by every contributor
// → the completing add observed by the applier → atomic round publish
// observed by the next round's contributors) keeps the average model
// race-free without a lock on the fast path.
func (r *Runtime) contribute(j, c int) {
	if r.zRound.Load() != int64(c) {
		r.waitRound(c)
	}
	// The central model is stable here: every learner of round c has passed
	// the gate above, and the round-c apply runs only after all k
	// contributions below.
	r.cfg.Contribute(j)
	if r.contrib.Add(1) == int64(r.k) {
		r.contrib.Store(0)
		r.cfg.Apply()
		r.stats.Rounds++
		// The snapshot window: round c is folded, round c+1 is not yet
		// open (its contributors are gated on the store below), so the
		// central model is stable for the duration of the hook.
		if r.cfg.Publish != nil {
			r.cfg.Publish(c + 1)
		}
		r.mu.Lock()
		r.zRound.Store(int64(c + 1))
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// waitRound parks learner j until round c's predecessor is folded.
func (r *Runtime) waitRound(c int) {
	r.mu.Lock()
	r.stats.RoundWaits++
	if lead := 2 * r.tau; lead > r.stats.MaxLeadIters {
		r.stats.MaxLeadIters = lead // waiting ⇒ a full round ahead
	}
	for r.zRound.Load() != int64(c) {
		r.cond.Wait()
	}
	r.mu.Unlock()
}
