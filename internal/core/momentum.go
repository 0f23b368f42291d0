package core

// MomentumKind selects the momentum method applied to the central average
// model's update. §3.2 argues for Polyak's method over Nesterov's
// accelerated gradient: with model averaging, the update to the central
// average model is computed by all learners from their *current* positions,
// not from an estimated look-ahead position, which is exactly the
// information Polyak's heavy-ball update consumes.
type MomentumKind int

// Momentum methods for the average-model update.
const (
	// Polyak is the heavy-ball method (Alg 1 line 12):
	// z ← z + Σc + µ(z − z_prev).
	Polyak MomentumKind = iota
	// Nesterov applies the correction sum at the extrapolated point:
	// z ← z_la + Σc evaluated against z_la = z + µ(z − z_prev), i.e. the
	// corrections are recomputed at the look-ahead position. Offered for
	// the §3.2 ablation.
	Nesterov
)

func (k MomentumKind) String() string {
	if k == Nesterov {
		return "nesterov"
	}
	return "polyak"
}

// StepNesterov performs one SMA iteration using Nesterov-style momentum on
// the central average model: the look-ahead position z_la = z + µ(z−z_prev)
// is computed first, corrections are taken against z_la, and the new z is
// z_la plus the correction sum. Learner-side mechanics match Step.
func (s *SMA) StepNesterov(ws, gs [][]float32) {
	if len(ws) != s.k || len(gs) != s.k {
		panic("core: StepNesterov with wrong vector counts")
	}
	s.iter++
	if s.iter%s.cfg.Tau != 0 {
		s.localStepsRange(ws, gs, 0, len(s.z))
		return
	}
	mu := s.cfg.Momentum
	for i, z := range s.z {
		la := z + mu*(z-s.zPrev[i])
		zNew := la
		for _, w := range ws {
			c := s.alpha * (w[i] - la)
			zNew += c
			w[i] -= c
		}
		s.zPrev[i], s.z[i] = z, zNew
	}
	s.localStepsRange(ws, gs, 0, len(s.z))
}
