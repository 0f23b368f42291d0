package core

import "crossbow/internal/nn"

// Snapshot is a versioned, self-contained copy of the central average model
// cut at a synchronisation-round boundary — the servable artefact of an SMA
// training run (the whole point of the central average model is that it is
// the model one would deploy; see DESIGN.md §11).
//
// Consistency contract: Params is copied inside the task runtime's Publish
// window, where the average model is guaranteed stable in both scheduling
// modes, so a snapshot is always the exact, fully-folded model of round
// Round — never a torn mixture of two rounds, even when learners keep
// training barrier-free while the copy happens.
type Snapshot struct {
	// Model names the architecture Params belongs to.
	Model nn.ModelID
	// Round is the snapshot's version: the number of synchronisation
	// rounds folded into the central average model when it was cut.
	// Monotone over a run (including across online-autotuning resizes,
	// which carry the round base over), so a larger Round always
	// identifies a more recent model.
	Round int
	// Iter is the per-learner iteration count the round represents
	// (Round × τ).
	Iter int
	// Epoch is the number of training epochs the snapshot has completed:
	// the epoch it was cut in, less one unless the cut ended that epoch.
	// It is the number a checkpoint records as Epoch, and the one a
	// rejoining rank resumes after (Inputs.StartEpoch).
	Epoch int
	// Params is the copied central average model, owned by the receiver.
	Params []float32
}

// snapshotPublisher cuts snapshots of a training run's central model every
// publishEvery rounds, from inside the runtime's Publish window. It holds
// the pieces that survive an online-autotuning resize: the round base (the
// runtime's round counter restarts per phase) and the consumer callback.
type snapshotPublisher struct {
	cfg       *Config
	onSnap    func(Snapshot)
	everyRnds int
	roundBase int // rounds folded by completed runtime phases
	// The current epoch (1-based) and the per-learner iteration count at
	// which it ends; written between RunEpochs (quiescence).
	epoch, epochEnd int
}

// newSnapshotPublisher resolves PublishEvery (iterations, rounded up to the
// enclosing τ boundary — snapshots are only cut where the model is stable)
// into a round period. Returns nil when publishing is off.
func newSnapshotPublisher(cfg *Config) *snapshotPublisher {
	if cfg.PublishEvery <= 0 || cfg.OnSnapshot == nil {
		return nil
	}
	every := (cfg.PublishEvery + cfg.Tau - 1) / cfg.Tau
	if every < 1 {
		every = 1
	}
	return &snapshotPublisher{cfg: cfg, onSnap: cfg.OnSnapshot, everyRnds: every}
}

// hook returns the engine Publish closure for one runtime phase over opt.
// round arrives 1-based and phase-local; the publisher rebases it.
func (sp *snapshotPublisher) hook(opt stepper) func(round int) {
	if sp == nil {
		return nil
	}
	return func(round int) {
		r := sp.roundBase + round
		if r%sp.everyRnds != 0 {
			return
		}
		sp.publish(opt, r)
	}
}

// publish cuts one snapshot. Called from the runtime's Publish window (or
// at quiescence); the model copy is the only non-trivial work, so a
// publication costs one memcpy and publishing every K rounds amortises it.
func (sp *snapshotPublisher) publish(opt stepper, round int) {
	// An overlapped global exchange launched by this round's Step is folded
	// before the model is copied: the Publish window runs on the same
	// goroutine as Step under lockstep, so the published bytes match the
	// synchronous path's exactly.
	drainExchange(opt)
	s := Snapshot{
		Model: sp.cfg.Model,
		Round: round,
		Iter:  round * sp.cfg.Tau,
		Epoch: sp.epoch - 1,
	}
	if s.Iter >= sp.epochEnd {
		s.Epoch = sp.epoch
	}
	if sma, ok := opt.(*SMA); ok {
		s.Params = make([]float32, len(sma.Average()))
		sma.SnapshotCentral(s.Params)
	} else {
		s.Params = append([]float32(nil), opt.Average()...)
	}
	sp.onSnap(s)
}

// rebase accounts a completed runtime phase's rounds before a resize, so
// snapshot versions stay monotone across learner-count changes.
func (sp *snapshotPublisher) rebase(rounds int) {
	if sp != nil {
		sp.roundBase += rounds
	}
}

// setEpoch records the epoch subsequent snapshots are cut in and the
// iteration count that completes it. Call at quiescence (between
// RunEpochs).
func (sp *snapshotPublisher) setEpoch(e, endIter int) {
	if sp != nil {
		sp.epoch, sp.epochEnd = e, endIter
	}
}
