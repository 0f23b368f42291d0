package crossbow

import (
	"crossbow/internal/metrics"
	"crossbow/internal/serve"
)

// ServeConfig configures a prediction service over a trained model: the
// model source (Params, Checkpoint or Follow), the batching policy and the
// replica pool. It is serve.Config, declared once in internal/serve, where
// each field is documented.
type ServeConfig = serve.Config

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
	eng *serve.Engine
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
	eng, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Predictor{eng: eng}, nil
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
func (p *Predictor) FeedStats() FeedStats { return p.eng.FeedStats() }

// Close stops accepting requests, answers everything already queued, and
// shuts the service down (unsubscribing from the model feed first when
// following one). Predict calls racing Close either complete or return
// serve.ErrClosed.
func (p *Predictor) Close() { p.eng.Close() }
