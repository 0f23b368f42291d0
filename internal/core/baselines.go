package core

import (
	"fmt"

	"crossbow/internal/tensor"
)

// SSGD is parallel synchronous SGD with momentum — the algorithm behind
// the paper's TensorFlow baseline (§2.3). Each worker computes a partial
// gradient over its batch partition; the aggregate (averaged) gradient
// updates a single global model with momentum (Eq. 3), and every replica
// is reset to the global model before the next iteration.
type SSGD struct {
	LearnRate float32
	Momentum  float32
	// StateRanges marks the non-learnable state segments of the model
	// (batch-norm running statistics). Their gradients are identically
	// zero, so the global model carries them by averaging the replicas'
	// self-updated values each iteration.
	StateRanges [][2]int

	w   []float32 // the single global model
	vel []float32 // momentum velocity
	agg []float32 // scratch: aggregated gradient
}

// NewSSGD creates the optimiser from initial model w0.
func NewSSGD(lr, momentum float32, w0 []float32) *SSGD {
	return &SSGD{
		LearnRate: lr, Momentum: momentum,
		w:   append([]float32(nil), w0...),
		vel: make([]float32, len(w0)),
		agg: make([]float32, len(w0)),
	}
}

// Average returns the global model — the model S-SGD trains.
func (s *SSGD) Average() []float32 { return s.w }

// SetLearnRate updates γ.
func (s *SSGD) SetLearnRate(lr float32) { s.LearnRate = lr }

// Step aggregates the workers' partial gradients (gs[j] from partition j),
// applies the momentum update to the global model, and copies the new
// model into every replica ws[j] — the §2.3 lockstep: "all replicas are
// the same after each iteration".
func (s *SSGD) Step(ws, gs [][]float32) {
	if len(gs) == 0 {
		panic("core: SSGD.Step with no gradients")
	}
	tensor.AverageInto(s.agg, gs...)
	tensor.SMALocalStep(s.w, s.agg, s.vel, s.LearnRate, s.Momentum)
	carryState(s.StateRanges, s.w, ws)
	for _, w := range ws {
		tensor.Copy(w, s.w)
	}
}

// carryState writes the replica-average of each state segment into the
// global model, so layer-maintained state (batch-norm statistics) survives
// the per-iteration replica reset.
func carryState(ranges [][2]int, global []float32, ws [][]float32) {
	if len(ranges) == 0 || len(ws) == 0 {
		return
	}
	inv := 1 / float32(len(ws))
	for _, rg := range ranges {
		for i := rg[0]; i < rg[1]; i++ {
			var s float32
			for _, w := range ws {
				s += w[i]
			}
			global[i] = s * inv
		}
	}
}

// EASGD is elastic averaging SGD (Zhang et al., the paper's §5.5
// comparator): identical to SMA's correction mechanics but without
// momentum on the central average model, and typically synchronising only
// every τ iterations to save communication.
type EASGD struct {
	LearnRate float32
	Alpha     float32
	Tau       int
	// LocalMomentum applies momentum inside each learner's gradient step,
	// mirroring SMA's learners so Figure 15's comparison isolates the
	// central-model momentum.
	LocalMomentum float32

	z     []float32
	delta []float32
	vel   [][]float32
	iter  int
}

// NewEASGD creates the optimiser for k learners from initial model w0.
// alpha zero selects 1/k.
func NewEASGD(lr, alpha float32, tau, k int, w0 []float32) *EASGD {
	if tau < 1 {
		tau = 1
	}
	if alpha == 0 {
		alpha = 1 / float32(k)
	}
	e := &EASGD{
		LearnRate: lr, Alpha: alpha, Tau: tau,
		z:     append([]float32(nil), w0...),
		delta: make([]float32, len(w0)),
		vel:   make([][]float32, k),
	}
	for j := range e.vel {
		e.vel[j] = make([]float32, len(w0))
	}
	return e
}

func (e *EASGD) localStep(j int, w, g []float32) {
	tensor.SMALocalStep(w, g, e.vel[j], e.LearnRate, e.LocalMomentum)
}

// Average returns the central average model.
func (e *EASGD) Average() []float32 { return e.z }

// Step performs one EA-SGD iteration over all learners.
func (e *EASGD) Step(ws, gs [][]float32) {
	e.iter++
	sync := e.iter%e.Tau == 0
	if !sync {
		for j := range ws {
			e.localStep(j, ws[j], gs[j])
		}
		return
	}
	tensor.ZeroSlice(e.delta)
	for j := range ws {
		w := ws[j]
		for i := range w {
			c := e.Alpha * (w[i] - e.z[i])
			e.delta[i] += c
			w[i] -= c
		}
		e.localStep(j, w, gs[j])
	}
	// No momentum term: this is the ablation Figure 15 isolates.
	tensor.Axpy(1, e.delta, e.z)
}

// SetLearnRate updates γ.
func (e *EASGD) SetLearnRate(lr float32) { e.LearnRate = lr }

// ASGD is asynchronous SGD (§2.3, Hogwild-style): each worker applies its
// gradient — computed from a stale snapshot of the shared model — directly
// to the shared model without waiting for the others. The staleness model
// here is one iteration: all gradients in a Step were computed against the
// model as it stood when the iteration began, and workers apply them
// sequentially, each seeing the partial updates of earlier workers.
// Included as the §6 comparison point; Crossbow itself is synchronous.
type ASGD struct {
	LearnRate float32
	// StateRanges: see SSGD.StateRanges.
	StateRanges [][2]int

	w []float32
}

// NewASGD creates the optimiser from initial model w0.
func NewASGD(lr float32, w0 []float32) *ASGD {
	return &ASGD{LearnRate: lr, w: append([]float32(nil), w0...)}
}

// Average returns the shared model — the model A-SGD trains.
func (a *ASGD) Average() []float32 { return a.w }

// SetLearnRate updates γ.
func (a *ASGD) SetLearnRate(lr float32) { a.LearnRate = lr }

// Step applies each worker's (stale) gradient to the shared model in turn,
// then refreshes every replica with the current shared model — the
// snapshot the next iteration's gradients will be computed against.
func (a *ASGD) Step(ws, gs [][]float32) {
	if len(ws) != len(gs) {
		panic(fmt.Sprintf("core: ASGD.Step with %d replicas, %d gradients", len(ws), len(gs)))
	}
	for _, g := range gs {
		tensor.Axpy(-a.LearnRate, g, a.w)
	}
	carryState(a.StateRanges, a.w, ws)
	for _, w := range ws {
		tensor.Copy(w, a.w)
	}
}
