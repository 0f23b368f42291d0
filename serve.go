package crossbow

import (
	"fmt"
	"sync"
	"time"

	"crossbow/internal/metrics"
	"crossbow/internal/serve"
	"crossbow/internal/transport"
)

// ServeConfig configures a prediction service over a trained model. At
// least one model source must be set: Params (e.g. a Result.Params or a
// published Snapshot), Checkpoint (a path written by SaveModel/
// SaveSnapshot), or Follow (a live model feed; combined with Params or
// Checkpoint the latter becomes the feed's warm base).
type ServeConfig struct {
	// Model is the architecture to serve. Required with Params; inferred
	// from the file with Checkpoint (and validated against it if set).
	Model Model
	// Params is the flat model vector to serve. The service takes
	// ownership.
	Params []float32
	// Version tags Params (use the snapshot round; zero is fine for
	// end-of-training models). Ignored with Checkpoint, which carries its
	// own snapshot version.
	Version int64
	// Checkpoint loads the model from a checkpoint file instead: the
	// service then serves exactly the published model the file carries,
	// reporting its recorded snapshot round as the model version.
	Checkpoint string
	// Replicas is the number of concurrent forward-only model replicas
	// (default 1). Throughput scales with replicas until compute saturates.
	Replicas int
	// MaxBatch bounds dynamic micro-batching: up to MaxBatch queued
	// requests coalesce into one forward pass (default 8).
	MaxBatch int
	// MaxDelay caps how long a non-full batch waits for stragglers. Within
	// the cap it waits only while they keep coming: its first request
	// followed another request or an answer by less than one measured
	// batch service time, and each next one arrives within one service time
	// of the last — so a request to an idle service ships at once. Zero
	// (the default) ships at once with whatever is queued; crossbow serve
	// defaults to 2ms. Every batch runs on the smallest power-of-two batch
	// class that holds it.
	MaxDelay time.Duration
	// QueueDepth bounds the request queue; Predict blocks (backpressure)
	// while it is full (default Replicas×MaxBatch×4).
	QueueDepth int
	// ShedOnFull switches the full-queue behaviour from backpressure to
	// load shedding: Predict returns ErrOverloaded immediately instead of
	// blocking, keeping admitted requests' latency bounded under overload
	// (sheds are counted in ServingStats.Shed).
	ShedOnFull bool
	// AdmitDeadline, when positive, sheds any request that cannot be
	// answered within this budget — at admission when the queue's
	// estimated drain time already exceeds it, or at dispatch if the
	// request aged past it while queued.
	AdmitDeadline time.Duration
	// SLO switches batching from the static MaxBatch/MaxDelay knobs to the
	// adaptive controller (DESIGN.md §16): the service measures per-class
	// batch service times and arrival rate each control window and picks
	// the smallest batch class whose capacity covers the load while meeting
	// this p99 latency target. MaxBatch becomes the ceiling of the class
	// ladder rather than the operating point.
	SLO time.Duration
	// ControlEvery is the adaptive controller's decision window (default
	// 100ms). Only meaningful with SLO set.
	ControlEvery time.Duration
	// AutoScale, with SLO set, lets the service size its own replica pool:
	// Replicas becomes the floor and AutoScale the ceiling, and the
	// training-side throughput hill-climb (the paper's Algorithm 2) finds
	// the count in between that measured load justifies, with hysteresis
	// for scale-in and demand-drift restart for scale-out.
	AutoScale int
	// Follow subscribes the service to a model feed (a ModelPublisher or
	// Config.PublishAddr) instead of a fixed model: every published
	// snapshot hot-swaps in as it arrives, shipped as a delta against the
	// model the service already holds. Params or Checkpoint may still be
	// set as a warm base — the feed then resumes with deltas instead of a
	// full snapshot (the rejoin path); with neither, Serve blocks until the
	// first snapshot arrives (FollowTimeout) before answering requests.
	Follow string
	// FollowTimeout bounds the cold-start wait for the first snapshot on a
	// Follow feed with no warm base (default 30s).
	FollowTimeout time.Duration
}

// ErrOverloaded is returned by Predict when the service sheds a request
// under overload (ServeConfig.ShedOnFull / AdmitDeadline). Servers should
// map it to a fast 503.
var ErrOverloaded = serve.ErrOverloaded

// Prediction is one served answer: the arg-max class, its softmax
// confidence, and the model version that computed it.
type Prediction = serve.Prediction

// ServingStats is a point-in-time snapshot of a Predictor's behaviour:
// request/batch counts, batch occupancy, queue pressure and latency
// quantiles.
type ServingStats = metrics.ServingStats

// Predictor is a running prediction service. Predict is safe for
// concurrent use from any number of goroutines; Close drains and stops it.
type Predictor struct {
	eng  *serve.Engine
	feed *transport.Follower // non-nil with ServeConfig.Follow
}

// Serve starts a batched prediction service for a trained model (DESIGN.md
// §11): requests coalesce into micro-batches executed by forward-only
// replicas on the blocked kernels, allocation-free per request in steady
// state.
//
// Serving the model a run just trained:
//
//	res, _ := crossbow.Train(cfg)
//	p, _ := crossbow.Serve(crossbow.ServeConfig{Model: cfg.Model, Params: res.Params})
//	defer p.Close()
//	pred, _ := p.Predict(sample)
//
// To serve while training, publish snapshots into the predictor:
//
//	cfg.PublishEvery = 100
//	cfg.OnSnapshot = func(s crossbow.Snapshot) { p.UpdateSnapshot(s) }
func Serve(cfg ServeConfig) (*Predictor, error) {
	params, version := cfg.Params, cfg.Version
	model := cfg.Model
	if cfg.Checkpoint != "" {
		if params != nil {
			return nil, fmt.Errorf("crossbow: ServeConfig.Params and Checkpoint are mutually exclusive")
		}
		c, err := LoadCheckpoint(cfg.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("crossbow: loading %s: %w", cfg.Checkpoint, err)
		}
		if model != "" && model != c.Model {
			return nil, fmt.Errorf("crossbow: checkpoint %s holds %q, config says %q",
				cfg.Checkpoint, c.Model, model)
		}
		model, params, version = c.Model, c.Params, c.SnapshotRound
	}
	var fs *feedState
	if cfg.Follow != "" {
		var err error
		if model, params, version, fs, err = followBase(cfg, model, params, version); err != nil {
			return nil, err
		}
	}
	eng, err := serve.New(serve.Config{
		Model:         model,
		Params:        params,
		Version:       version,
		Replicas:      cfg.Replicas,
		MaxBatch:      cfg.MaxBatch,
		MaxDelay:      cfg.MaxDelay,
		QueueDepth:    cfg.QueueDepth,
		ShedOnFull:    cfg.ShedOnFull,
		AdmitDeadline: cfg.AdmitDeadline,

		SLO:          cfg.SLO,
		ControlEvery: cfg.ControlEvery,
		AutoScale:    cfg.AutoScale,
	})
	if err != nil {
		if fs != nil {
			fs.f.Close()
		}
		return nil, err
	}
	p := &Predictor{eng: eng}
	if fs != nil {
		p.feed = fs.f
		// The engine exists now: route every later snapshot into it, and
		// catch any update that raced the handoff by re-applying the
		// follower's newest state once (applying a round twice is harmless).
		fs.mu.Lock()
		fs.eng = eng
		pending := fs.latest
		fs.latest = nil
		fs.mu.Unlock()
		if pending != nil && pending.round > version {
			eng.UpdateModel(pending.params, pending.round)
		}
	}
	return p, nil
}

// feedState bridges a feed follower to the engine built after it — the
// cold-start chicken-and-egg: the first snapshot names the architecture the
// engine needs, so the follower necessarily starts before serve.New can run.
// Until the engine lands, updates park in latest; after, they flow straight
// through.
type feedState struct {
	f *transport.Follower

	mu     sync.Mutex
	eng    *serve.Engine
	latest *feedModel
}

type feedModel struct {
	model  string
	params []float32
	round  int64
}

// followBase starts the feed follower and resolves the engine's starting
// model. With a warm base (Params or Checkpoint) it returns immediately and
// the feed resumes with deltas; cold, it blocks until the first snapshot
// arrives or FollowTimeout passes.
func followBase(cfg ServeConfig, model Model, params []float32, version int64) (Model, []float32, int64, *feedState, error) {
	timeout := cfg.FollowTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	var warm []float32
	if params != nil {
		// Both the follower and the engine take ownership of their vector.
		warm = append([]float32(nil), params...)
	}
	fs := &feedState{}
	first := make(chan struct{})
	var firstOnce sync.Once
	f, err := transport.Follow(transport.FollowerConfig{
		Addr:   cfg.Follow,
		Round:  version,
		Params: warm,
		OnUpdate: func(m string, w []float32, round, iter int64, full bool) {
			fs.mu.Lock()
			eng := fs.eng
			if eng == nil {
				fs.latest = &feedModel{model: m, params: w, round: round}
			}
			fs.mu.Unlock()
			if eng != nil {
				eng.UpdateModel(w, round) // length-checked: a foreign shape is refused
			}
			firstOnce.Do(func() { close(first) })
		},
	})
	if err != nil {
		return "", nil, 0, nil, err
	}
	fs.f = f
	if params != nil {
		return model, params, version, fs, nil // warm: serve the base now
	}
	// Cold start: the first snapshot defines the model.
	select {
	case <-first:
	case <-time.After(timeout):
		f.Close()
		return "", nil, 0, nil, fmt.Errorf("crossbow: no snapshot from feed %s within %v", cfg.Follow, timeout)
	}
	fs.mu.Lock()
	pending := fs.latest
	fs.latest = nil
	fs.mu.Unlock()
	if model != "" && string(model) != pending.model {
		f.Close()
		return "", nil, 0, nil, fmt.Errorf("crossbow: feed %s publishes %q, config says %q",
			cfg.Follow, pending.model, model)
	}
	return Model(pending.model), pending.params, pending.round, fs, nil
}

// Predict classifies one sample (a flat [C×H×W] image, SampleVol elements).
// It blocks through queueing, batching and execution — at an idle service
// one batch service time, under load a queue wait plus at most a few
// service times of straggler holds, never more than MaxDelay of them — and
// is allocation-free per call in steady state.
func (p *Predictor) Predict(sample []float32) (Prediction, error) {
	return p.eng.Predict(sample)
}

// UpdateSnapshot hot-swaps the served model to a newer published snapshot
// without dropping or delaying queued requests — the serving half of
// Config.OnSnapshot.
func (p *Predictor) UpdateSnapshot(s Snapshot) error {
	return p.eng.UpdateModel(s.Params, int64(s.Round))
}

// UpdateParams hot-swaps the served model to an arbitrary parameter vector
// under the given version.
func (p *Predictor) UpdateParams(params []float32, version int64) error {
	return p.eng.UpdateModel(params, version)
}

// Model returns the served architecture.
func (p *Predictor) Model() Model { return p.eng.Model() }

// Version returns the version of the currently served model.
func (p *Predictor) Version() int64 { return p.eng.Version() }

// SampleVol returns the expected per-sample element count of Predict inputs.
func (p *Predictor) SampleVol() int { return p.eng.SampleVol() }

// Stats reports the service's behaviour so far.
func (p *Predictor) Stats() ServingStats { return p.eng.Stats() }

// FeedStats reports model-feed traffic — snapshots received as deltas vs
// fulls, their payload bytes, resyncs, and redials — when the service was
// started with ServeConfig.Follow; the zero FeedStats otherwise.
func (p *Predictor) FeedStats() FeedStats {
	if p.feed == nil {
		return FeedStats{}
	}
	return p.feed.Stats()
}

// Close stops accepting requests, answers everything already queued, and
// shuts the service down (unsubscribing from the model feed first when
// following one). Predict calls racing Close either complete or return
// serve.ErrClosed.
func (p *Predictor) Close() {
	if p.feed != nil {
		p.feed.Close()
	}
	p.eng.Close()
}
