package data

import "crossbow/internal/tensor"

// Batcher yields shuffled mini-batch index sets over a dataset, epoch after
// epoch. Shuffling is deterministic given the seed, and batches never span
// epoch boundaries (a trailing partial batch is dropped, as the paper's
// fixed-batch-shape learners require).
type Batcher struct {
	n     int
	batch int
	rng   *tensor.RNG
	perm  []int
	pos   int
	epoch int
}

// NewBatcher creates a batcher over n samples with the given batch size.
func NewBatcher(n, batch int, seed uint64) *Batcher {
	if batch <= 0 || batch > n {
		panic("data: batch size out of range")
	}
	b := &Batcher{n: n, batch: batch, rng: tensor.NewRNG(seed), perm: make([]int, n)}
	b.rng.Perm(b.perm)
	return b
}

// Epoch returns the zero-based epoch of the batch the next Next call yields.
func (b *Batcher) Epoch() int { return b.epoch }

// BatchesPerEpoch returns the number of full batches in one epoch.
func (b *Batcher) BatchesPerEpoch() int { return b.n / b.batch }

// Next returns the next batch's sample indices. The returned slice is valid
// until the following Next call.
func (b *Batcher) Next() []int {
	if b.pos+b.batch > b.n {
		b.rng.Perm(b.perm)
		b.pos = 0
		b.epoch++
	}
	out := b.perm[b.pos : b.pos+b.batch]
	b.pos += b.batch
	return out
}
