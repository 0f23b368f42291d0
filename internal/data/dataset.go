package data

import (
	"fmt"

	"crossbow/internal/tensor"
)

// Dataset is an in-memory labelled sample collection. Samples are stored
// flattened and contiguous: sample i occupies X[i*SampleVol() : (i+1)*SampleVol()].
type Dataset struct {
	Shape   []int // per-sample shape, e.g. [3, 8, 8]
	Classes int
	X       []float32
	Y       []int
}

// SampleVol returns the number of elements in one sample.
func (d *Dataset) SampleVol() int { return tensor.Volume(d.Shape) }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Sample returns the flat view of sample i.
func (d *Dataset) Sample(i int) []float32 {
	v := d.SampleVol()
	return d.X[i*v : (i+1)*v]
}

// Gather copies the samples at the given indices into x (shape
// [len(idx), Shape...]) and their labels into labels.
func (d *Dataset) Gather(idx []int, x *tensor.Tensor, labels []int) {
	v := d.SampleVol()
	xd := x.Data()
	if len(xd) < len(idx)*v || len(labels) < len(idx) {
		panic("data: Gather destination too small")
	}
	for bi, si := range idx {
		copy(xd[bi*v:(bi+1)*v], d.Sample(si))
		labels[bi] = d.Y[si]
	}
}

// SynthConfig controls synthetic dataset generation. Samples of class c are
// prototype[c] + Noise·N(0,1): a redundant, clustered distribution with the
// property the paper's statistical-efficiency argument relies on — a few
// small batches suffice to capture the problem's dimensionality, while
// gradient noise still regularises.
type SynthConfig struct {
	Shape   []int
	Classes int
	Train   int // training samples
	Test    int // test samples
	Noise   float64
	// ProtoScale scales the class prototypes relative to the noise; it is
	// the task-difficulty knob. Class separation grows with
	// ProtoScale·√dim / Noise, so small values give a genuinely hard
	// decision boundary that takes many SGD updates to learn — the regime
	// where the paper's batch-size/statistical-efficiency trade-off shows.
	// Zero selects 1.
	ProtoScale float64
	Seed       uint64
}

// Synthesize generates train and test datasets from cfg, building the two
// sets at the same time. Generation is fully determined by cfg.Seed.
func Synthesize(cfg SynthConfig) (train, test *Dataset) {
	s := NewSynthesis(cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		test = s.Test()
	}()
	train = s.Train()
	<-done
	return train, test
}

// Synthesis is a dataset synthesis with its shared draws made: the class
// prototypes, then each set's noise stream split off the seed's stream, the
// train set's first. Its two sets can then be built in either order, at the
// same time or more than once, always to the same bytes.
type Synthesis struct {
	cfg               SynthConfig
	vol               int
	protos            []float32 // class c's prototype is protos[c·vol : (c+1)·vol]
	trainRNG, testRNG tensor.RNG
}

// NewSynthesis validates cfg, fills in its defaults and makes the shared
// draws. It panics on fewer than two classes or a negative set size.
func NewSynthesis(cfg SynthConfig) *Synthesis {
	if cfg.Classes < 2 {
		panic(fmt.Sprintf("data: need at least 2 classes, got %d", cfg.Classes))
	}
	if cfg.Train < 0 || cfg.Test < 0 {
		panic(fmt.Sprintf("data: negative set size (train %d, test %d)", cfg.Train, cfg.Test))
	}
	if cfg.Noise <= 0 {
		cfg.Noise = 0.5
	}
	if cfg.ProtoScale <= 0 {
		cfg.ProtoScale = 1
	}
	r := tensor.NewRNG(cfg.Seed)
	s := &Synthesis{cfg: cfg, vol: tensor.Volume(cfg.Shape)}
	s.protos = make([]float32, cfg.Classes*s.vol)
	r.NormFloat32s(s.protos, cfg.ProtoScale)
	s.trainRNG, s.testRNG = *r.Split(), *r.Split()
	return s
}

// Train builds the training set.
func (s *Synthesis) Train() *Dataset { return s.build(s.cfg.Train, s.trainRNG) }

// Test builds the test set.
func (s *Synthesis) Test() *Dataset { return s.build(s.cfg.Test, s.testRNG) }

// build makes n samples of balanced classes, sample i of class i mod
// Classes: the set's noise, drawn over the whole of X in one pass in sample
// order, plus each sample's prototype — p + Noise·N(0,1) rounded to float32,
// element for element. rng is a copy, so the stream it starts is the set's
// own every time.
func (s *Synthesis) build(n int, rng tensor.RNG) *Dataset {
	d := &Dataset{
		Shape:   append([]int(nil), s.cfg.Shape...),
		Classes: s.cfg.Classes,
		X:       make([]float32, n*s.vol),
		Y:       make([]int, n),
	}
	rng.NormFloat32s(d.X, s.cfg.Noise)
	for i := range d.Y {
		c := i % s.cfg.Classes
		d.Y[i] = c
		tensor.AccumAdd(d.Sample(i), s.protos[c*s.vol:(c+1)*s.vol])
	}
	return d
}
