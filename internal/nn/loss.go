package nn

import (
	"math"

	"crossbow/internal/tensor"
)

// SoftmaxCE is the softmax cross-entropy loss head used by all benchmark
// models. It consumes logits of shape [B, Classes] and integer labels.
type SoftmaxCE struct {
	Classes int
	batch   int

	probs *tensor.Tensor
	dx    *tensor.Tensor

	pbProbs, pbDx *plannedBuf
}

// NewSoftmaxCE constructs the loss for a fixed batch size. Buffers are
// declared to the memory planner, not allocated here.
func NewSoftmaxCE(batch, classes int) *SoftmaxCE {
	return &SoftmaxCE{
		Classes: classes, batch: batch,
		probs: tensor.NewShell(batch, classes),
		dx:    tensor.NewShell(batch, classes),
	}
}

// ensure lazily allocates whichever buffers no arena has bound. The two are
// independent because the forward-only inference plan attaches probs but
// not dx, which only Loss writes: Predict and Evaluate call Probs and never
// touch it.
func (s *SoftmaxCE) ensure() {
	if !s.probs.HasData() {
		s.probs.SetData(make([]float32, s.batch*s.Classes))
	}
	if !s.dx.HasData() {
		s.dx.SetData(make([]float32, s.batch*s.Classes))
	}
}

// planLoss declares the head's buffers: Loss writes probs and dx row by row
// while reading the logits (so both outputs must coexist with them), and
// Predictions may read probs back after the loss returns.
func (s *SoftmaxCE) planLoss(p *taskPlanner, logits *plannedBuf) *plannedBuf {
	s.pbProbs = p.shell("loss.probs", s.probs, bufActivation)
	s.pbDx = p.shell("loss.dx", s.dx, bufGradient)
	p.touch(logits, s.pbProbs)
	return s.pbDx
}

// planProbs declares the head's forward-only buffer: the serving walk needs
// the softmax probabilities for Predict but neither the loss value's
// bookkeeping nor the logits gradient.
func (s *SoftmaxCE) planProbs(p *taskPlanner, logits *plannedBuf) {
	s.pbProbs = p.shell("loss.probs", s.probs, bufActivation)
	p.touch(logits, s.pbProbs)
}

// Probs computes the row-wise softmax of the logits into the probs buffer —
// the label-free half of Loss, used by the serving path. The returned
// tensor is the head's probs buffer (live until the next Loss/Probs call).
func (s *SoftmaxCE) Probs(logits *tensor.Tensor) *tensor.Tensor {
	if !s.probs.HasData() {
		s.probs.SetData(make([]float32, s.batch*s.Classes))
	}
	ld, pd := logits.Data(), s.probs.Data()
	for n := 0; n < s.batch; n++ {
		row := ld[n*s.Classes : (n+1)*s.Classes]
		prow := pd[n*s.Classes : (n+1)*s.Classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			prow[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range prow {
			prow[j] *= inv
		}
	}
	return s.probs
}

// Loss computes the mean cross-entropy over the batch and the gradient with
// respect to the logits (already divided by the batch size, matching
// Eq. (2) of the paper: the gradient is averaged over batch samples). The
// softmax itself is Probs — one implementation serves both the training
// and the serving path, so the two can never diverge numerically.
func (s *SoftmaxCE) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if len(labels) != s.batch {
		panic("nn: label count does not match batch size")
	}
	s.ensure()
	s.Probs(logits)
	pd, dd := s.probs.Data(), s.dx.Data()
	var total float64
	invB := float32(1) / float32(s.batch)
	for n := 0; n < s.batch; n++ {
		prow := pd[n*s.Classes : (n+1)*s.Classes]
		drow := dd[n*s.Classes : (n+1)*s.Classes]
		y := labels[n]
		if y < 0 || y >= s.Classes {
			panic("nn: label out of range")
		}
		p := float64(prow[y])
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
		for j := range drow {
			drow[j] = prow[j] * invB
		}
		drow[y] -= invB
	}
	return total / float64(s.batch), s.dx
}

// Predictions returns the arg-max class of the most recent Loss or Probs
// call's softmax for each sample in the batch.
func (s *SoftmaxCE) Predictions(out []int) []int {
	if out == nil {
		out = make([]int, s.batch)
	}
	pd := s.probs.Data()
	for n := 0; n < s.batch; n++ {
		row := pd[n*s.Classes : (n+1)*s.Classes]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[n] = bi
	}
	return out
}
