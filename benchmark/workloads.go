package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"crossbow"
	"crossbow/internal/ckpt"
	"crossbow/internal/metrics"
)

// trainSpec is one training workload's fixed configuration. The untraced
// run turns it into a crossbow.Config (config); the traced run wires the
// same layers by hand from the same fields (traced.go), so the two cannot
// drift apart without the CRC check noticing.
type trainSpec struct {
	model         crossbow.Model
	learners      int // m, on one simulated GPU
	batch         int
	learnRate     float32 // 0: the model's default
	sched         crossbow.Scheduler
	kernelThreads int
	trainSamples  int
	epochsPerSec  float64 // epochs measured per second of -seconds, sized on the 2-core reference box
	unitIters     int     // iterations per unit the quiet edge is taken over (unitClock)
	restarts      int     // Train calls the epochs are split over, each from a fresh initialisation (0: one)
	accFloor      float64 // best test accuracy below this fails a full-length run
	ttaTarget     float64 // 0: no time-to-accuracy

	// Cluster only.
	ranks int
}

const (
	momentum    = 0.9
	testSamples = 512
	// fullLength is the -seconds from which accuracy floors and the TTA
	// target are enforced; shorter runs (the smoke test) have too few epochs
	// for them to mean anything.
	fullLength = 10
)

var trainSpecs = map[string]trainSpec{
	// Compute-bound: ~1.8 ms tasks, tens of µs of SMA. Lockstep is
	// bit-deterministic, which gives the CRC pin and an exact epochs-to-target.
	wlTrainResNet: {
		model: crossbow.ResNet32, learners: 2, batch: 4,
		sched: crossbow.Lockstep, kernelThreads: 2, trainSamples: 2048,
		epochsPerSec: 1.6, unitIters: 64, accFloor: 0.85, ttaTarget: 0.80,
	},
	// Scheduling-bound: ~100 µs tasks on the barrier-free path. The learning
	// rate is pinned because the default 0.02 diverges at b=2, m=4 and a
	// diverged run is 3x slower per epoch. The epochs are split over four
	// Train calls because even a converging run slows down as it trains (by
	// 15-70 % over 160 epochs, see README.md, finding 3), by an amount that
	// depends on which units die, which under FCFS depends on timing: one
	// long call measures that lottery, four short ones the scheduler.
	wlTrainLeNet: {
		model: crossbow.LeNet, learners: 4, batch: 2, learnRate: 0.002,
		sched: crossbow.FCFS, trainSamples: 2048,
		epochsPerSec: 8, unitIters: 64, restarts: 4, accFloor: 0.80,
	},
	// Exchange-bound: one global round per 4 images per rank.
	wlCluster: {
		model: crossbow.ResNet32, learners: 1, batch: 4,
		sched: crossbow.Lockstep, kernelThreads: 1, trainSamples: 1024,
		epochsPerSec: 0.5, unitIters: 32, accFloor: 0.72, ranks: 2,
	},
}

// calls is the number of Train calls a run's epochs are split over.
func (s trainSpec) calls() int { return max(1, s.restarts) }

// epochs is the epoch count of each Train call for a run of the given
// length.
func (s trainSpec) epochs(seconds int) int {
	return max(2, int(math.Round(float64(seconds)*s.epochsPerSec/float64(s.calls()))))
}

// itersPerEpoch is the joined iteration count of one epoch.
func (s trainSpec) itersPerEpoch() int {
	return max(1, s.trainSamples/s.batch/s.learners)
}

// config is the workload as the public API sees it.
func (s trainSpec) config(seed uint64, epochs int) crossbow.Config {
	return crossbow.Config{
		Model: s.model, Algo: crossbow.SMA, GPUs: 1, LearnersPerGPU: s.learners,
		Batch: s.batch, LearnRate: s.learnRate, Momentum: momentum, Tau: 1,
		Scheduler: s.sched, KernelMode: crossbow.Deterministic, KernelThreads: s.kernelThreads,
		TrainSamples: s.trainSamples, TestSamples: testSamples,
		MaxEpochs: epochs, Seed: seed,
	}
}

// setupConfig is the same configuration cut down to a single iteration, so
// a Train call is all set-up: build, plan, simulated hardware plane, one
// iteration, one evaluation, teardown.
func (s trainSpec) setupConfig(seed uint64) crossbow.Config {
	c := s.config(seed, 1)
	c.TrainSamples = s.learners * s.batch
	return c
}

// Runs shorter than fullLength exist to exercise the harness (the smoke
// test), not to measure: they train on an eighth of the samples, set up
// a quarter as often and probe a tenth as often.

// sized is the workload at the size a run of the given length trains.
func (s trainSpec) sized(seconds int) trainSpec {
	if seconds < fullLength {
		s.trainSamples /= 8
	}
	return s
}

// setupReps is how often a run of the given length measures set-up; setup_s
// is the quiet edge of the repeats. A single-server set-up takes tens of
// milliseconds, a cluster's or a service's (times four) more or less.
func setupReps(seconds int) int {
	if seconds < fullLength {
		return 2
	}
	return 8
}

// probeReps scales a probe's repetition count to the run's length.
func probeReps(seconds, reps int) int {
	if seconds < fullLength {
		return max(10, reps/10)
	}
	return reps
}

// unitClock cuts a Train call's epochs into units shorter than an epoch, from
// outside the program: it is the call's OnSnapshot, and takes a time stamp
// per published snapshot. The quiet edge (stats.go) needs units that fit
// into the box's quiet moments — tens of milliseconds — and an epoch (0.1 to
// 0.6 s) does not. On a single server the call is given PublishEvery:
// unitIters, one model copy per unit (2 MB per ~85 ms for ResNet-32, ~0.1 %
// of the unit); over TCP the trainer publishes every global round whether
// asked or not, so there the clock changes nothing.
type unitClock struct {
	mu     sync.Mutex
	stamps []unitStamp
}

type unitStamp struct {
	at          time.Time
	epoch, iter int
}

func (c *unitClock) onSnapshot(sn crossbow.Snapshot) {
	now := time.Now()
	c.mu.Lock()
	c.stamps = append(c.stamps, unitStamp{now, sn.Epoch, sn.Iter})
	c.mu.Unlock()
}

func (c *unitClock) reset() {
	c.mu.Lock()
	c.stamps = nil
	c.mu.Unlock()
}

// unitSecs returns the walls of the units of every iterations that start and
// end inside one epoch (evaluation runs between epochs).
func (c *unitClock) unitSecs(every int) []float64 {
	var out []float64
	var prev *unitStamp
	for i := range c.stamps {
		st := &c.stamps[i]
		if st.iter%every != 0 {
			continue
		}
		if prev != nil && prev.epoch == st.epoch && st.iter-prev.iter == every {
			out = append(out, st.at.Sub(prev.at).Seconds())
		}
		prev = st
	}
	return out
}

// quietUnit returns the workload's speed at the quiet edge of its units —
// seconds per iteration — and the units' walls. The unit is unitIters
// iterations as clocked; a smoke run, whose epochs are too short to hold
// one, falls back to its epochs.
func (s trainSpec) quietUnit(clocked, epochSecs []float64) (perIter float64, units []float64) {
	if len(clocked) > 0 {
		return quietTime(clocked) / float64(s.unitIters), clocked
	}
	return quietTime(epochSecs) / float64(s.itersPerEpoch()), epochSecs
}

// crcOf fingerprints a parameter vector bit for bit.
func crcOf(p []float32) uint32 { return ckpt.ParamsCRC(p) }

func epochSecs(w []metrics.WallPoint) []float64 {
	out := make([]float64, len(w))
	for i, p := range w {
		out[i] = p.Sec
	}
	return out
}

func lossesFinite(series []metrics.EpochPoint) bool {
	for _, p := range series {
		if !finite(p.Loss) {
			return false
		}
	}
	return true
}

// runTrain is the untraced run of a single-server training workload: every
// number comes from the public crossbow.Train.
func runTrain(s trainSpec, seed uint64, seconds int, r *report) error {
	full := seconds >= fullLength

	// Set-up time, several times over, and (lockstep) the determinism pin:
	// every repeat must produce the same bytes.
	var setups []float64
	var crcs []uint32
	for i := 0; i < 2*setupReps(seconds); i++ {
		t0 := time.Now()
		res, err := crossbow.Train(s.setupConfig(seed))
		if err != nil {
			return fmt.Errorf("set-up Train: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		crcs = append(crcs, crcOf(res.Params))
	}
	r.set("setup_s", quietTime(setups), len(setups))
	if s.sched == crossbow.Lockstep {
		same := true
		for _, c := range crcs[1:] {
			same = same && c == crcs[0]
		}
		r.check(same, "lockstep set-up runs disagree on the final parameters: CRCs %08x", crcs)
	}

	// The measured training: calls Train calls of epochs each, call i seeded
	// seed+i.
	epochs := s.epochs(seconds)
	var secs, clocked []float64
	var wall float64
	acc := 1.0
	var last *crossbow.Result
	for call := 0; call < s.calls(); call++ {
		cfg := s.config(seed+uint64(call), epochs)
		var clock unitClock
		cfg.PublishEvery, cfg.OnSnapshot = s.unitIters, clock.onSnapshot
		t0 := time.Now()
		res, err := crossbow.Train(cfg)
		if err != nil {
			return fmt.Errorf("Train: %w", err)
		}
		wall += time.Since(t0).Seconds()
		secs = append(secs, epochSecs(res.Wall)...)
		clocked = append(clocked, clock.unitSecs(s.unitIters)...)
		acc = min(acc, res.BestAccuracy)
		r.ops(epochs*s.itersPerEpoch(), 0)
		r.check(len(res.Wall) == epochs, "ran %d epochs, want %d", len(res.Wall), epochs)
		r.check(lossesFinite(res.Series), "a training loss is not finite")
		last = res
	}

	// Speed at the quiet edge of the units (stats.go, quietShare), and the
	// wall of the Train calls with their epochs taken at that speed: what is
	// not an epoch (evaluation, set-up, teardown) stays as measured.
	perIter, units := s.quietUnit(clocked, secs)
	quiet := perIter * float64(s.itersPerEpoch()) // an epoch at the quiet edge
	r.set("train_images_per_s", float64(s.trainSamples)/quiet, len(units))
	r.set("train_iter_ms", perIter*1e3, len(units))
	r.set("train_wall_s", wall-sum(secs)+float64(len(secs))*quiet, s.calls())
	r.set("test_acc_final", acc, len(secs))
	if full {
		r.check(acc >= s.accFloor, "best test accuracy %.4f below the floor %.2f", acc, s.accFloor)
	}
	if s.ttaTarget > 0 {
		ep, ok := metrics.EpochsToAccuracy(last.Series, s.ttaTarget)
		if full {
			r.check(ok, "test accuracy never reached %.2f in %d epochs", s.ttaTarget, epochs)
		}
		if !ok {
			ep = epochs // not reached: report the run's length, the check above fails a full run
		}
		r.set("tta_s", float64(ep)*quiet, len(secs))
		r.notef("epochs_to_target(%.2f) = %d (exact under lockstep for a given seed)", s.ttaTarget, ep)
	}
	r.notef("final-params crc %08x after %d x %d epochs; epoch wall at the quiet edge of %d units %.4f, as measured min %.4f p10 %.4f p50 %.4f p90 %.4f max %.4f s; Train calls %.3f s as measured; runtime stats %+v",
		crcOf(last.Params), s.calls(), epochs, len(units), quiet, quantile(secs, 0), quantile(secs, 0.1), median(secs), quantile(secs, 0.9), quantile(secs, 1), wall, last.RuntimeStats)
	return nil
}
