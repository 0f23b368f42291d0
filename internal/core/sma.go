package core

import (
	"fmt"

	"crossbow/internal/tensor"
)

// SMAConfig are the hyper-parameters of Algorithm 1.
type SMAConfig struct {
	// LearnRate is γ, applied to every learner's gradient.
	LearnRate float32
	// Momentum is µ, Polyak's momentum applied to the central average
	// model's update (§3.2): directions of persistent descent are kept.
	Momentum float32
	// LocalMomentum is the momentum each learner applies to its own
	// gradient steps (Eq. 3), as in the released Crossbow system; the
	// paper's §5.1 trains both systems with the same momentum setting.
	// Alg 1's µ concerns the average model only, so this is configured
	// separately; zero disables local momentum.
	LocalMomentum float32
	// Alpha is the correction constant α ≈ 1/k (line 9). Zero selects
	// 1/k automatically.
	Alpha float32
	// Tau synchronises replicas with the central average model every Tau
	// iterations (τ in §5.5-5.6; the paper shows τ=1 is optimal, but the
	// sweep needs τ>1 support). Zero means 1.
	Tau int
	// StateRanges marks non-learnable state segments (batch-norm running
	// statistics) inside the model vector. Corrections do not apply to
	// state — each replica keeps its own statistics — and the central
	// average model carries the replica average instead, mirroring how
	// the system treats solver state separately from weights.
	StateRanges [][2]int
}

// SMA is the synchronous-model-averaging optimiser: k learners train their
// own replicas; a central average model z consolidates their corrections
// and follows the consensus trajectory with momentum (Figure 5).
type SMA struct {
	cfg   SMAConfig
	k     int
	alpha float32

	z      []float32   // central average model
	zPrev  []float32   // z at the beginning of the previous iteration
	vel    [][]float32 // per-learner local momentum velocity
	state  stateRanges // segments exempt from corrections
	iter   int
	rounds int // consensus exchanges folded into z (z's version)
}

// NewSMA creates the optimiser for k learners from initial model w0. The
// central average model starts as a copy of w0 (Alg 1 line 1).
func NewSMA(cfg SMAConfig, w0 []float32, k int) *SMA {
	if k < 1 {
		panic("core: SMA needs at least one learner")
	}
	if cfg.Tau < 1 {
		cfg.Tau = 1
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 1 / float32(k)
	}
	s := &SMA{
		cfg: cfg, k: k, alpha: alpha,
		z:     append([]float32(nil), w0...),
		zPrev: append([]float32(nil), w0...),
		vel:   make([][]float32, k),
		state: newStateRanges(cfg.StateRanges, len(w0)),
	}
	for j := range s.vel {
		s.vel[j] = make([]float32, len(w0))
	}
	return s
}

// K returns the learner count.
func (s *SMA) K() int { return s.k }

// Alpha returns the effective correction constant.
func (s *SMA) Alpha() float32 { return s.alpha }

// Average returns the central average model z (the model SMA trains; Alg 1
// returns it on termination). The returned slice is live — do not modify.
func (s *SMA) Average() []float32 { return s.z }

// Rounds returns the number of consensus exchanges folded into the central
// average model so far — z's version. Every lockstep τ-boundary step
// (BeginStep) and every ApplyContributions advances it by one; the counter
// is monotone across §3.2 restarts, so a larger round number always
// identifies a more recent model.
func (s *SMA) Rounds() int { return s.rounds }

// SnapshotCentral copies the central average model into dst (len(dst) must
// match the model size) and returns the round version the copy represents.
// The copy is lock-cheap — one memcpy, no locks, no learner pause — because
// consistency comes from the caller's position in the synchronisation
// protocol, not from mutual exclusion: z is only ever written during a
// consensus exchange (a τ-boundary step's StepRange calls,
// ApplyContributions), so any call site that is ordered after one exchange
// and before the next observes a stable, fully-folded z. The task runtime's
// Publish hook provides exactly that window in both scheduling modes
// (lockstep: in the serial section that closes the iteration, after every
// learner's shard of the step has returned and before any learner starts
// its next task; FCFS: inside the round-completion critical section, before
// the next round opens); at quiescence any goroutine qualifies.
func (s *SMA) SnapshotCentral(dst []float32) (round int) {
	if len(dst) != len(s.z) {
		panic(fmt.Sprintf("core: SnapshotCentral into %d values, want %d", len(dst), len(s.z)))
	}
	copy(dst, s.z)
	return s.rounds
}

// The optimiser's passes over the model are walks in blocks of smaBlock
// elements: a block of every vector a step touches fits in L1 together with
// the block-sized correction sum, so each element is loaded from beyond L1
// once per step. Every walk partitions the model over disjoint index ranges
// and keeps per-index operations in replica order, so results are
// bit-identical at any worker count. The block loop is written out in each
// walk: handing the per-replica pass to one shared loop as a func value
// heap-allocates the closure once per segment and made the step 1.5× slower.
//
// smaGrain is the smallest range worth handing to a borrowed kernel worker,
// which is why a Step called outside a task runtime stays on the calling
// goroutine for every model here. The kernels stream ~1 element/ns, so a
// model under a few hundred thousand parameters is done before a parked
// goroutine has been woken: on the 2-vCPU reference box a two-replica Step
// over 180 000 parameters took 233 µs on one worker and 270–290 µs split
// over two, and only at 360 000 did the split win (414 vs 540 µs). The
// lockstep runtime does not pay that wake-up — its learners are already
// running when the step is due — so there the step is split at any size,
// one Shard per learner.
const (
	smaBlock = 1024
	smaGrain = 1 << 18
)

// serialWalk reports whether a walk over n parameters runs on the calling
// goroutine; callers then invoke their range function directly, so the
// chunk closure is never materialised.
func serialWalk(n int) bool { return n <= smaGrain || tensor.Parallelism() == 1 }

// Step performs one iteration of Algorithm 1 (lines 4-13). ws[j] is learner
// j's replica and gs[j] the raw loss gradient ∇ℓ_Bj(wj) the learner just
// computed; Step applies the learning rate internally. On non-sync
// iterations (iter % τ ≠ 0) replicas take pure gradient steps and the
// average model is left untouched — the τ>1 relaxation of §5.5.
//
// Step is BeginStep followed by StepRange over the whole model; a caller
// that has k goroutines of its own at hand (the lockstep runtime's learners)
// calls BeginStep once and StepRange once per Shard instead.
func (s *SMA) Step(ws, gs [][]float32) {
	s.BeginStep()
	if serialWalk(len(s.z)) {
		s.StepRange(ws, gs, 0, len(s.z))
		return
	}
	tensor.ParallelFor(len(s.z), smaGrain, func(lo, hi int) { s.StepRange(ws, gs, lo, hi) })
}

// BeginStep opens the next iteration: it advances the iteration count and,
// on a τ-boundary, z's version. Call it once per iteration, with no
// StepRange of the previous iteration still running; the StepRange calls
// that follow apply the iteration it opened.
func (s *SMA) BeginStep() {
	s.iter++
	if s.iter%s.cfg.Tau == 0 {
		s.rounds++
	}
}

// StepRange applies the iteration BeginStep opened to parameters [lo, hi).
// It touches nothing outside that range in any vector, so calls over
// disjoint ranges may run concurrently, and since every per-index operation
// keeps its replica order the result does not depend on where the ranges
// were cut: ranges covering [0, len) exactly once, in any order, amount to
// one Step, bit for bit.
func (s *SMA) StepRange(ws, gs [][]float32, lo, hi int) {
	if len(ws) != s.k || len(gs) != s.k {
		panic(fmt.Sprintf("core: SMA step with %d/%d vectors, want %d", len(ws), len(gs), s.k))
	}
	if s.iter%s.cfg.Tau != 0 {
		s.localStepsRange(ws, gs, lo, hi)
	} else {
		s.stepRange(ws, gs, lo, hi)
	}
}

// Shard returns the j-th of n contiguous ranges covering the model, cut at
// multiples of smaBlock so that two shards never share a block's cache
// lines and every shard but the last is whole blocks (ResNet-32's 45 210
// parameters at n = 2: 22 and 23 blocks).
func (s *SMA) Shard(j, n int) (lo, hi int) {
	blocks := (len(s.z) + smaBlock - 1) / smaBlock
	lo = min(j*blocks/n*smaBlock, len(s.z))
	hi = min((j+1)*blocks/n*smaBlock, len(s.z))
	return lo, hi
}

func (s *SMA) localStepsRange(ws, gs [][]float32, lo, hi int) {
	lr, muL := s.cfg.LearnRate, s.cfg.LocalMomentum
	for j, w := range ws {
		tensor.SMALocalStep(w[lo:hi], gs[j][lo:hi], s.vel[j][lo:hi], lr, muL)
	}
}

// stepRange is the τ-boundary iteration over [lo, hi) in one traversal.
// Per block, every replica takes its correction c_j = α(w_j − z) — computed
// against z as it stood at the iteration start (line 9) — and its gradient
// step in one fused pass (line 10), the corrections summing in replica
// order into a block-sized scratch; then z follows the sum with momentum,
// z ← z + Σ c_j + µ(z − z_prev) (lines 11-13). Fusing the gradient step
// into the correction pass is exact: learner j's step reads nothing the
// other replicas' corrections write. State segments (batch-norm
// statistics) are exempt from corrections: z carries the replica average
// and the replicas take the plain step.
func (s *SMA) stepRange(ws, gs [][]float32, lo, hi int) {
	var scratch [smaBlock]float32
	alpha, mu := s.alpha, s.cfg.Momentum
	lr, muL := s.cfg.LearnRate, s.cfg.LocalMomentum
	for seg := s.state.segments(lo, hi); ; {
		a, b, state, ok := seg.next()
		if !ok {
			return
		}
		if state {
			averageState(s.z, s.zPrev, ws, a, b)
			s.localStepsRange(ws, gs, a, b)
			continue
		}
		for ; a < b; a += smaBlock {
			e := min(a+smaBlock, b)
			delta := scratch[:e-a]
			clear(delta)
			for j, w := range ws {
				tensor.SMACorrectStep(w[a:e], gs[j][a:e], s.vel[j][a:e], s.z[a:e], delta, alpha, lr, muL)
			}
			tensor.SMAFold(s.z[a:e], s.zPrev[a:e], delta, mu)
		}
	}
}

// averageState is the state-segment form of the consensus update over
// [lo, hi): z carries the average of the vectors (replica statistics, or
// the values ContributeStep handed over), summed in index order.
func averageState(z, zPrev []float32, vs [][]float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float32
		for _, v := range vs {
			sum += v[i]
		}
		zPrev[i] = z[i]
		z[i] = sum / float32(len(vs))
	}
}

// foldBlocks folds per-replica contributions into z over the plain segment
// [lo, hi): per block, delta = Σ_j vs[j] accumulated from zero in index
// order, then z ← z + delta + µ(z − z_prev).
func foldBlocks(z, zPrev []float32, vs [][]float32, mu float32, lo, hi int) {
	var scratch [smaBlock]float32
	for ; lo < hi; lo += smaBlock {
		e := min(lo+smaBlock, hi)
		delta := scratch[:e-lo]
		clear(delta)
		for _, v := range vs {
			tensor.AccumAdd(delta, v[lo:e])
		}
		tensor.SMAFold(z[lo:e], zPrev[lo:e], delta, mu)
	}
}

// LocalStep applies learner j's gradient to its replica with local momentum
// (Alg 1 line 8/10). It touches only learner j's state, so distinct
// learners may step concurrently — the barrier-free runtime's contract.
func (s *SMA) LocalStep(j int, w, g []float32) {
	lr, muL, v := s.cfg.LearnRate, s.cfg.LocalMomentum, s.vel[j]
	if serialWalk(len(w)) {
		tensor.SMALocalStep(w, g, v, lr, muL)
		return
	}
	tensor.ParallelFor(len(w), smaGrain, func(lo, hi int) {
		tensor.SMALocalStep(w[lo:hi], g[lo:hi], v[lo:hi], lr, muL)
	})
}

// ContributeStep is learner j's τ-boundary update, fused into one pass
// over the replica: the correction c_j = α(w_j − z) against the current
// central average model is computed on the replica as it stood at the
// iteration start, applied to it, and stored in out (len(out) == len(w));
// then the iteration's gradient step w ← (w − c) + (v ← µ_L·v − γ·g)
// follows (Alg 1 line 10: replicas take correction and gradient in one
// iteration). It is the same kernel pass the lockstep Step runs per
// replica, storing the correction instead of summing it, so the two
// schedulers stay numerically interchangeable. State entries are exempt
// from corrections; out carries the replica's pre-step value there so
// ApplyContributions can average it.
//
// ContributeStep reads z and touches only learner j's state otherwise, so
// all learners of one round may contribute concurrently as long as no
// ApplyContributions runs in between — the runtime's round protocol
// guarantees exactly that.
func (s *SMA) ContributeStep(j int, w, g, out []float32) {
	if serialWalk(len(w)) {
		s.contributeRange(j, w, g, out, 0, len(w))
		return
	}
	tensor.ParallelFor(len(w), smaGrain, func(lo, hi int) { s.contributeRange(j, w, g, out, lo, hi) })
}

func (s *SMA) contributeRange(j int, w, g, out []float32, lo, hi int) {
	lr, muL, v := s.cfg.LearnRate, s.cfg.LocalMomentum, s.vel[j]
	for seg := s.state.segments(lo, hi); ; {
		a, b, state, ok := seg.next()
		if !ok {
			return
		}
		if state {
			copy(out[a:b], w[a:b])
			tensor.SMALocalStep(w[a:b], g[a:b], v[a:b], lr, muL)
			continue
		}
		tensor.SMAContributeStep(w[a:b], g[a:b], v[a:b], s.z[a:b], out[a:b], s.alpha, lr, muL)
	}
}

// ApplyContributions folds one round of corrections into the central
// average model: delta[i] = Σ_j corr[j][i] accumulated in learner-index
// order, then z ← z + delta + µ(z − z_prev) (Alg 1 lines 11-13), exactly
// the arithmetic and accumulation order of the lockstep Step — so for
// corrections computed against the same z, lockstep and barrier-free
// synchronisation produce bit-identical average models. State entries
// carry the replica average. corr must hold one ContributeStep result per
// learner.
func (s *SMA) ApplyContributions(corr [][]float32) {
	if len(corr) != s.k {
		panic(fmt.Sprintf("core: ApplyContributions with %d vectors, want %d", len(corr), s.k))
	}
	s.rounds++
	if serialWalk(len(s.z)) {
		s.applyRange(corr, 0, len(s.z))
		return
	}
	tensor.ParallelFor(len(s.z), smaGrain, func(lo, hi int) { s.applyRange(corr, lo, hi) })
}

func (s *SMA) applyRange(corr [][]float32, lo, hi int) {
	for seg := s.state.segments(lo, hi); ; {
		a, b, state, ok := seg.next()
		if !ok {
			return
		}
		if state {
			averageState(s.z, s.zPrev, corr, a, b)
		} else {
			foldBlocks(s.z, s.zPrev, corr, s.cfg.Momentum, a, b)
		}
	}
}

// Restart re-initialises the averaging process from the current central
// average model (§3.2: when a learning-rate change does not improve
// accuracy, Alg 1 is executed again with the latest z as the new w0).
// Replicas are reset to z and the momentum history is cleared.
func (s *SMA) Restart(ws [][]float32) {
	copy(s.zPrev, s.z)
	for j, w := range ws {
		tensor.Copy(w, s.z)
		tensor.ZeroSlice(s.vel[j])
	}
	s.iter = 0
}

// SetLearnRate updates γ (online hyper-parameter adaptation, §3.2).
func (s *SMA) SetLearnRate(lr float32) { s.cfg.LearnRate = lr }

// LearnRate returns the current γ.
func (s *SMA) LearnRate() float32 { return s.cfg.LearnRate }
