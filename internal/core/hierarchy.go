package core

import (
	"fmt"

	"crossbow/internal/tensor"
)

// HierarchicalSMA is the synchronisation organisation of §3.3 (Figure 6):
// learners that share a GPU synchronise cheaply against a local reference
// model through direct application of model differences, while only the
// reference models (one per GPU) take part in the global SMA exchange —
// turning the flat all-learner barrier into a two-level tree whose
// inter-GPU traffic is independent of the learners-per-GPU count.
type HierarchicalSMA struct {
	cfg    SMAConfig
	groups [][]int // learner indices per GPU; groups[g][0] is the reference
	// alphaLocal is the intra-GPU correction constant (≈ 1/m for m
	// learners on the GPU).
	alphaLocal []float32

	z     []float32
	zPrev []float32
	delta []float32
	vel   [][]float32 // per-learner local momentum velocity (indexed by learner)
	iter  int
	alpha float32 // global correction constant (≈ 1/numGroups)
}

// NewHierarchicalSMA creates the optimiser. groups assigns each learner
// index to a GPU; the first learner of each group manages the GPU's
// reference model.
func NewHierarchicalSMA(cfg SMAConfig, w0 []float32, groups [][]int) *HierarchicalSMA {
	if len(groups) == 0 {
		panic("core: hierarchical SMA needs at least one group")
	}
	if cfg.Tau < 1 {
		cfg.Tau = 1
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 1 / float32(len(groups))
	}
	h := &HierarchicalSMA{
		cfg: cfg, alpha: alpha,
		z:     append([]float32(nil), w0...),
		zPrev: append([]float32(nil), w0...),
		delta: make([]float32, len(w0)),
	}
	k := 0
	for _, g := range groups {
		if len(g) == 0 {
			panic("core: empty learner group")
		}
		h.groups = append(h.groups, append([]int(nil), g...))
		h.alphaLocal = append(h.alphaLocal, 1/float32(len(g)))
		k += len(g)
	}
	validateGroups(groups, k)
	h.vel = make([][]float32, k)
	for j := range h.vel {
		h.vel[j] = make([]float32, len(w0))
	}
	return h
}

func (h *HierarchicalSMA) localStep(j int, w, g []float32) {
	tensor.SMALocalStep(w, g, h.vel[j], h.cfg.LearnRate, h.cfg.LocalMomentum)
}

// Average returns the central average model.
func (h *HierarchicalSMA) Average() []float32 { return h.z }

// SetLearnRate updates γ.
func (h *HierarchicalSMA) SetLearnRate(lr float32) { h.cfg.LearnRate = lr }

// Step performs one hierarchical iteration: every learner applies its
// gradient; learners then synchronise with their GPU's reference model
// (intra-GPU, shared-memory scope); finally the reference models run the
// global SMA update against the central average model (inter-GPU,
// all-reduce scope).
func (h *HierarchicalSMA) Step(ws, gs [][]float32) {
	h.iter++
	if h.iter%h.cfg.Tau != 0 {
		for j := range ws {
			h.localStep(j, ws[j], gs[j])
		}
		return
	}
	// Local synchronisation: non-reference learners fuse their gradient
	// step with a correction toward the GPU's reference model, whose
	// counterpart difference is applied to the reference model directly
	// (Figure 6, right). As in Alg 1, corrections are computed on the
	// replicas as they stood at the start of the iteration.
	for gi, g := range h.groups {
		ref := ws[g[0]]
		aL := h.alphaLocal[gi]
		for _, j := range g[1:] {
			w := ws[j]
			for i := range w {
				c := aL * (w[i] - ref[i])
				w[i] -= c
				ref[i] += c
			}
			h.localStep(j, w, gs[j])
		}
	}
	// Global synchronisation: SMA over the reference models (Alg 1 lines
	// 8-13 with the reference models as the replicas w_j). Each reference
	// learner's own gradient applies here.
	tensor.ZeroSlice(h.delta)
	for _, g := range h.groups {
		ref := ws[g[0]]
		for i := range ref {
			c := h.alpha * (ref[i] - h.z[i])
			h.delta[i] += c
			ref[i] -= c
		}
		h.localStep(g[0], ref, gs[g[0]])
	}
	mu := h.cfg.Momentum
	for i := range h.z {
		zOld := h.z[i]
		h.z[i] = zOld + h.delta[i] + mu*(zOld-h.zPrev[i])
		h.zPrev[i] = zOld
	}
}

// Restart re-seeds all replicas from the central average model and clears
// the momentum history (§3.2 restart on learning-rate changes).
func (h *HierarchicalSMA) Restart(ws [][]float32) {
	copy(h.zPrev, h.z)
	for j, w := range ws {
		tensor.Copy(w, h.z)
		tensor.ZeroSlice(h.vel[j])
	}
	h.iter = 0
}

// Groups returns the learner grouping (for tests and the engine).
func (h *HierarchicalSMA) Groups() [][]int { return h.groups }

// validateGroups panics if groups do not partition 0..k-1.
func validateGroups(groups [][]int, k int) {
	seen := make([]bool, k)
	count := 0
	for _, g := range groups {
		for _, j := range g {
			if j < 0 || j >= k || seen[j] {
				panic(fmt.Sprintf("core: invalid learner grouping %v for k=%d", groups, k))
			}
			seen[j] = true
			count++
		}
	}
	if count != k {
		panic(fmt.Sprintf("core: grouping covers %d of %d learners", count, k))
	}
}

// GroupsFor builds the canonical grouping of k = gpus×perGPU learners:
// learner g*perGPU+i lives on GPU g.
func GroupsFor(gpus, perGPU int) [][]int {
	groups := make([][]int, gpus)
	for g := 0; g < gpus; g++ {
		for i := 0; i < perGPU; i++ {
			groups[g] = append(groups[g], g*perGPU+i)
		}
	}
	validateGroups(groups, gpus*perGPU)
	return groups
}
