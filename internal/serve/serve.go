package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crossbow/internal/metrics"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
	"crossbow/internal/transport"
)

// ErrClosed is returned by Predict once the engine has been closed.
var ErrClosed = errors.New("serve: engine closed")

// ErrOverloaded is returned by Predict when the engine sheds the request
// instead of queueing it: the queue is full (ShedOnFull) or the request
// cannot be answered within AdmitDeadline. Shedding is the graceful-
// degradation contract — a fast, cheap refusal the caller can convert to
// a 503 and retry elsewhere, instead of an unbounded queue wait that takes
// the whole latency distribution down with it.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// Config configures a prediction engine; crossbow.ServeConfig is this type.
// At least one model source must be set: Params (a training result or a
// published snapshot), Checkpoint (a file written by crossbow.SaveModel or
// SaveSnapshot), or Follow (a live model feed; combined with Params or
// Checkpoint the latter becomes the feed's warm base).
type Config struct {
	// Model names the architecture to serve. Required with Params;
	// inferred from the file with Checkpoint and from the first snapshot
	// with a cold Follow (and checked against either if set).
	Model nn.ModelID
	// Params is the model to serve — a published training snapshot
	// (core.Snapshot.Params) or a training result. The engine takes
	// ownership; do not modify after New.
	Params []float32
	// Version tags Params (the snapshot round; zero is fine for
	// end-of-training models); reported with every prediction and in
	// Stats. Ignored with Checkpoint, which carries its own.
	Version int64
	// Checkpoint loads the model from a checkpoint file instead of Params:
	// the engine then serves exactly the published model the file
	// carries, reporting its recorded snapshot round as the model version.
	Checkpoint string
	// Replicas is the number of forward-only model replicas serving
	// batches concurrently, each with its own planned inference arena
	// (default 1). A free replica gathers its own batch from the queue,
	// one replica at a time, and runs it.
	Replicas int
	// MaxBatch is the micro-batching ceiling: a replica coalesces at most
	// MaxBatch queued requests into one forward pass (default 8). Each
	// batch runs on the smallest power-of-two class that holds it, up to
	// MaxBatch, so a partial batch pays no padded forward.
	MaxBatch int
	// MaxDelay caps how long a non-full batch waits for stragglers once a
	// replica has taken its first request. Within the cap it waits only
	// while stragglers keep coming: its first request followed another
	// request or an answer by less than one measured class-1 service time,
	// and each next request arrives within one service time of the batch
	// so far. A request to an idle engine ships at once. Zero — the
	// default — never waits; crossbow serve defaults to 2ms.
	MaxDelay time.Duration
	// QueueDepth bounds the request queue; Predict blocks while it is
	// full — backpressure, not load shedding (default Replicas×MaxBatch×4).
	QueueDepth int
	// ShedOnFull flips the full-queue behaviour from backpressure to load
	// shedding: Predict returns ErrOverloaded immediately instead of
	// blocking. Under sustained overload this keeps the latency of the
	// requests that ARE admitted bounded by the queue's drain time, at the
	// price of refusing the excess (counted in ServingStats.Shed).
	ShedOnFull bool
	// AdmitDeadline, when positive, is the per-request answer budget: a
	// request is shed at admission when the queue's estimated drain time
	// already exceeds it, and again at gathering if it aged past the budget
	// while queued (both return ErrOverloaded). This is deadline-aware
	// admission — work that would miss its deadline anyway is refused
	// before it wastes a replica's forward pass.
	AdmitDeadline time.Duration
	// SLO, when positive, turns on adaptive batching (DESIGN.md §16): the
	// engine targets this end-to-end p99 latency, treating MaxBatch as a
	// ceiling and MaxDelay as irrelevant — a measurement-driven controller
	// picks the batch size and straggler wait each control window from the
	// observed arrival rate and per-class service times. Zero (the default)
	// keeps the static MaxBatch/MaxDelay policy.
	SLO time.Duration
	// ControlEvery is the adaptive controller's decision window (default
	// 100ms). Only meaningful with SLO set.
	ControlEvery time.Duration
	// AutoScale, when positive with SLO set, lets the engine resize its own
	// replica pool between MinReplicas(=Replicas) and AutoScale replicas,
	// tracking measured throughput-per-replica under the process worker
	// budget, which the batches in flight divide between them as learning
	// tasks do. Zero keeps the fixed Replicas count.
	AutoScale int
	// Follow subscribes the engine to a model feed (crossbow.ModelPublisher
	// or crossbow.Config.PublishAddr) at this address: every published
	// snapshot hot-swaps in as it arrives, shipped as a delta against the
	// model the engine already holds. With a warm base (Params or
	// Checkpoint) the feed resumes with deltas; with neither, New blocks
	// until the first snapshot arrives (FollowTimeout).
	Follow string
	// FollowTimeout bounds the cold-start wait for the first snapshot on a
	// Follow feed with no warm base (default 30s).
	FollowTimeout time.Duration
}

// fillDefaults checks the options and fills the defaults. The model itself
// is checked by checkModel, once its source has been resolved.
func (c *Config) fillDefaults() error {
	if c.Checkpoint != "" && c.Params != nil {
		return errors.New("serve: Config.Params and Checkpoint are mutually exclusive")
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.Replicas * c.MaxBatch * 4
	}
	if c.ControlEvery <= 0 {
		c.ControlEvery = 100 * time.Millisecond
	}
	if c.FollowTimeout <= 0 {
		c.FollowTimeout = 30 * time.Second
	}
	if c.AutoScale > 0 && c.SLO <= 0 {
		return errors.New("serve: AutoScale requires an SLO (the autoscaler is driven by the same measurement windows)")
	}
	if c.AutoScale > 0 && c.AutoScale < c.Replicas {
		return fmt.Errorf("serve: AutoScale ceiling %d below Replicas %d", c.AutoScale, c.Replicas)
	}
	return nil
}

// checkModel requires a known model and its parameters.
func (c *Config) checkModel() error {
	if c.Model == "" {
		return errors.New("serve: Config.Model is required")
	}
	if _, ok := nn.ScaledConfigs[c.Model]; !ok {
		return fmt.Errorf("serve: unknown model %q", c.Model)
	}
	if len(c.Params) == 0 {
		return errors.New("serve: Config.Params is required (train a model, load a checkpoint or follow a feed)")
	}
	return nil
}

// Prediction is one request's answer.
type Prediction struct {
	// Class is the arg-max class index.
	Class int
	// Confidence is the winning class's softmax probability.
	Confidence float32
	// Version identifies the model snapshot that produced the answer.
	Version int64
}

// request is the internal unit of work. Requests are recycled through a
// fixed free list so the steady-state hot path allocates nothing.
type request struct {
	sample []float32 // caller's slice; read until the reply is sent
	enq    time.Time
	resp   chan Prediction // buffered(1); reused across checkouts
	// err is set (to ErrOverloaded) by the gathering replica before
	// answering a shed request; the resp channel send/receive gives the
	// happens-before edge that makes the plain field safe to read in Predict.
	err error
}

// modelState is the immutable (params, version) pair replicas serve;
// UpdateModel swaps the pointer, replicas rebind lazily between batches.
type modelState struct {
	w       []float32
	version int64
}

// replicaSlot is one forward-only copy of the network at one batch class,
// with its planned inference arena and fixed-batch staging buffers.
type replicaSlot struct {
	net   *nn.Network
	x     *tensor.Tensor
	vol   int // per-sample volume
	preds []int
	conf  []float32
	bound *modelState // model the net is currently bound to
}

// replica is one serving replica: one slot per batch class, built the first
// time a batch of that class runs on it (each slot owns a planned arena, so
// an unvisited class costs nothing). A batch runs on the smallest class that
// holds it instead of paying the full-MaxBatch forward pass: a lone request
// on ResNet-32 costs a class-1 forward, not a padded class-8 one. Slots are
// touched only by the replica's own goroutine.
type replica struct {
	id    int
	slots []*replicaSlot
}

// Engine is the batched prediction runtime. Create with New, submit with
// Predict from any number of goroutines, retire with Close.
type Engine struct {
	cfg   Config
	model atomic.Pointer[modelState]
	feed  *transport.Follower // non-nil with Config.Follow

	queue    chan *request
	freeReqs chan *request
	stop     chan struct{} // tells the replicas to drain the queue and exit
	// token is the one-slot gather token: only its holder takes requests
	// off the queue and touches lastEnq, the last one's enqueue time.
	token   chan struct{}
	lastEnq time.Time

	mu     sync.RWMutex // guards closed against in-flight enqueues
	closed bool
	wg     sync.WaitGroup

	sampleVol   int
	gradScratch []float32 // shared Bind scratch; forward passes never write it

	// answeredNs is when the last batch was answered, in nanoseconds since
	// epoch (New's start; zero: never). The straggler gate reads it.
	epoch      time.Time
	answeredNs atomic.Int64

	// Batching state. classes is the batch-size ladder every replica's
	// slots follow. With SLO > 0 (adaptive), curBatch/curDelayNs are the
	// controller's live policy, read by the gathering replica per batch;
	// the window meters feed the next decision and are swapped out each
	// control tick.
	adaptive    bool
	classes     []int
	curBatch    atomic.Int64
	curDelayNs  atomic.Int64
	winLatency  metrics.LatencyRecorder
	arrivals    atomic.Int64
	classMeters []classMeter
	sloBreaches atomic.Int64

	// Replica pool sizing. liveReplicas is how many replica goroutines
	// currently serve batches (== cfg.Replicas unless autoscaling);
	// desiredReplicas is the autoscaler's target — a replica goroutine
	// whose id exceeds it parks until scaled up again.
	liveReplicas    atomic.Int64
	desiredReplicas atomic.Int64
	resizes         atomic.Int64

	// Stats. occupancy = requests/batches; queuePeak is a CAS-maxed gauge;
	// holdsExpired counts gathers that held until MaxDelay.
	requests     atomic.Int64
	nbatches     atomic.Int64
	rejected     atomic.Int64
	shed         atomic.Int64
	swaps        atomic.Int64
	queuePeak    atomic.Int64
	holdsExpired atomic.Int64
	latency      metrics.LatencyRecorder
	service      metrics.LatencyRecorder
}

// classMeter accumulates one batch class's service time over a control
// window (lock-free; swapped out by the controller each tick). ewmaNs is
// the class's running service-time estimate ŝ, which the straggler gate
// reads (zero: unmeasured); it is never swapped out.
type classMeter struct {
	sumNs  atomic.Int64
	n      atomic.Int64
	ewmaNs atomic.Int64
}

// New validates cfg, resolves its model source (loading the checkpoint, or
// starting the feed follower the engine then owns), builds replica 0's
// class-1 slot (the one a lone first request runs on) and starts the
// replica goroutines. Every other slot is built the first time its class
// runs; once each class a load visits is built, the hot path allocates
// nothing.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	fd, err := cfg.resolveModel()
	if err != nil {
		return nil, err
	}
	e, err := start(cfg)
	if err != nil {
		if fd != nil {
			fd.f.Close()
		}
		return nil, err
	}
	if fd != nil {
		e.feed = fd.f
		fd.attach(e)
	}
	return e, nil
}

// start builds and starts the engine for a resolved model.
func start(cfg Config) (*Engine, error) {
	if err := cfg.checkModel(); err != nil {
		return nil, err
	}
	probe := nn.BuildScaled(cfg.Model, 1, tensor.NewRNG(1))
	if len(cfg.Params) != probe.ParamSize() {
		return nil, fmt.Errorf("serve: %q takes %d parameters, got %d",
			cfg.Model, probe.ParamSize(), len(cfg.Params))
	}
	maxReplicas := cfg.Replicas
	if cfg.AutoScale > maxReplicas {
		maxReplicas = cfg.AutoScale
	}
	e := &Engine{
		cfg:         cfg,
		queue:       make(chan *request, cfg.QueueDepth),
		freeReqs:    make(chan *request, cfg.QueueDepth+maxReplicas*cfg.MaxBatch),
		stop:        make(chan struct{}),
		token:       make(chan struct{}, 1),
		epoch:       time.Now(),
		classes:     batchClasses(cfg.MaxBatch),
		sampleVol:   tensor.Volume(probe.InShape),
		gradScratch: make([]float32, probe.ParamSize()),
	}
	e.model.Store(&modelState{w: cfg.Params, version: cfg.Version})
	e.adaptive = cfg.SLO > 0
	e.classMeters = make([]classMeter, len(e.classes))
	// The controller starts at the smallest class — the lowest-latency
	// answer to an unknown load — and grows within a window or two when the
	// measured rate demands it. Static mode pins the configured policy.
	e.curBatch.Store(int64(e.classes[0]))
	e.liveReplicas.Store(int64(cfg.Replicas))
	e.desiredReplicas.Store(int64(cfg.Replicas))
	e.token <- struct{}{}

	for i := 0; i < maxReplicas; i++ {
		r := &replica{id: i, slots: make([]*replicaSlot, len(e.classes))}
		if i == 0 {
			// The validation probe is a class-1 net; keep it as replica 0's
			// class-1 slot instead of throwing it away.
			r.slots[0] = e.makeSlot(probe, 1)
		}
		e.wg.Add(1)
		go e.replicaLoop(r)
	}
	if e.adaptive {
		e.wg.Add(1)
		go e.control()
	}
	return e, nil
}

// makeSlot wraps an already-built forward network into a replica slot,
// binding it to the current model.
func (e *Engine) makeSlot(net *nn.Network, batchSize int) *replicaSlot {
	ms := e.model.Load()
	// Fusion is bit-identical (TestFusedPredictBitIdentical) and only
	// shrinks the inference walk.
	net.FuseInference()
	net.Bind(ms.w, e.gradScratch)
	net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
	return &replicaSlot{
		net:   net,
		x:     tensor.New(append([]int{batchSize}, net.InShape...)...),
		vol:   tensor.Volume(net.InShape),
		preds: make([]int, batchSize),
		conf:  make([]float32, batchSize),
		bound: ms,
	}
}

// buildSlot builds a replica slot at the given batch size from scratch.
func (e *Engine) buildSlot(batchSize int) *replicaSlot {
	return e.makeSlot(nn.BuildScaled(e.cfg.Model, batchSize, tensor.NewRNG(1)), batchSize)
}

// replicaLoop is one replica of the leader/followers pool: take the gather
// token, gather a batch, hand the token on, run the batch; after Close, until
// the queue is drained. A replica whose id is at or above the autoscaler's
// target parks — polling rather than gathering, so scaled-away capacity
// stops pulling work within a poll tick but its built slots survive for the
// next scale-up.
func (e *Engine) replicaLoop(r *replica) {
	defer e.wg.Done()
	b := make([]*request, 0, e.cfg.MaxBatch)
	for {
		if int64(r.id) >= e.desiredReplicas.Load() {
			select {
			case <-e.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		<-e.token
		b = e.gather(b[:0])
		e.token <- struct{}{}
		if len(b) == 0 {
			return // closed and drained
		}
		e.runBatch(r, b)
	}
}

// SampleVol returns the expected per-sample element count of Predict inputs.
func (e *Engine) SampleVol() int { return e.sampleVol }

// Model returns the served architecture.
func (e *Engine) Model() nn.ModelID { return e.cfg.Model }

// Version returns the currently served model version.
func (e *Engine) Version() int64 { return e.model.Load().version }

// UpdateModel hot-swaps the served model: replicas rebind to the new
// parameters before their next batch, without dropping or delaying queued
// requests. The engine takes ownership of params (hand it a snapshot's
// Params directly). In-flight batches answer with the version they were
// computed under.
func (e *Engine) UpdateModel(params []float32, version int64) error {
	if len(params) != len(e.gradScratch) {
		return fmt.Errorf("serve: UpdateModel with %d parameters, want %d",
			len(params), len(e.gradScratch))
	}
	e.model.Store(&modelState{w: params, version: version})
	e.swaps.Add(1)
	return nil
}

// Predict classifies one sample (len must equal SampleVol; the slice is
// read until Predict returns). It blocks while the request queue is full —
// backpressure — and through batching and execution; the answer carries the
// class, its softmax confidence and the model version that computed it.
// Safe for concurrent use; zero heap allocations per call in steady state.
func (e *Engine) Predict(sample []float32) (Prediction, error) {
	if len(sample) != e.sampleVol {
		// A short sample would silently classify a hybrid of this request
		// and stale staging data; reject it like every other shape
		// mismatch in the codebase.
		return Prediction{}, fmt.Errorf("serve: sample has %d values, %q takes %d",
			len(sample), e.cfg.Model, e.sampleVol)
	}
	if e.adaptive {
		e.arrivals.Add(1) // offered load: every well-formed request, shed or not
	}
	// Deadline-aware admission: estimate how long the queue already ahead
	// of us takes to drain (batches ahead × mean batch service time) and
	// refuse on arrival if the answer would miss the budget anyway. The
	// estimate is deliberately cheap — a few atomic reads — because it runs
	// on every request of an overloaded server.
	if e.cfg.AdmitDeadline > 0 {
		if mean := e.service.Mean(); mean > 0 {
			maxB, _ := e.policy()
			ahead := int64(len(e.queue)/(maxB*int(e.liveReplicas.Load())) + 1)
			if time.Duration(ahead*int64(mean)) > e.cfg.AdmitDeadline {
				e.shed.Add(1)
				return Prediction{}, ErrOverloaded
			}
		}
	}

	req := e.getReq()
	req.sample = sample
	req.enq = time.Now()

	// The closed flag is checked under a read lock held across the
	// enqueue, and Close flips it under the write lock *before* telling
	// the replicas to drain: every request that passes this gate is
	// therefore enqueued before the drain starts and will be served, and
	// no request can slip into the queue after it.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.putReq(req)
		e.rejected.Add(1)
		return Prediction{}, ErrClosed
	}
	if e.cfg.ShedOnFull {
		select {
		case e.queue <- req:
		default:
			e.mu.RUnlock()
			e.putReq(req)
			e.shed.Add(1)
			return Prediction{}, ErrOverloaded
		}
	} else {
		e.queue <- req
	}
	e.mu.RUnlock()

	for d := int64(len(e.queue)); ; {
		cur := e.queuePeak.Load()
		if d <= cur || e.queuePeak.CompareAndSwap(cur, d) {
			break
		}
	}
	p := <-req.resp
	err := req.err
	req.err = nil
	e.putReq(req)
	if err != nil {
		return Prediction{}, err
	}
	return p, nil
}

// Close unsubscribes from the model feed when following one, stops
// accepting requests, serves everything already queued, waits for the
// replicas to finish, and returns. Safe to call more than once; Predict
// calls racing Close either complete normally or return ErrClosed.
func (e *Engine) Close() {
	if e.feed != nil {
		e.feed.Close()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	e.wg.Wait()
}

// FeedStats reports model-feed traffic — snapshots received as deltas vs
// fulls, their payload bytes, resyncs and redials — when the engine
// follows a feed; the zero FeedStats otherwise.
func (e *Engine) FeedStats() metrics.FeedStats {
	if e.feed == nil {
		return metrics.FeedStats{}
	}
	return e.feed.Stats()
}

// Stats returns a point-in-time snapshot of the runtime's behaviour.
func (e *Engine) Stats() metrics.ServingStats {
	reqs, bat := e.requests.Load(), e.nbatches.Load()
	s := metrics.ServingStats{
		Requests:     reqs,
		Batches:      bat,
		Rejected:     e.rejected.Load(),
		Shed:         e.shed.Load(),
		HoldsExpired: e.holdsExpired.Load(),
		QueueDepth:   len(e.queue),
		QueuePeak:    int(e.queuePeak.Load()),
		P50Ms:        metrics.Ms(e.latency.Quantile(0.50)),
		P95Ms:        metrics.Ms(e.latency.Quantile(0.95)),
		P99Ms:        metrics.Ms(e.latency.Quantile(0.99)),
		MaxMs:        metrics.Ms(e.latency.Max()),
		MeanMs:       metrics.Ms(e.latency.Mean()),
		ServiceP50Ms: metrics.Ms(e.service.Quantile(0.50)),
		ServiceP99Ms: metrics.Ms(e.service.Quantile(0.99)),
		ModelVersion: e.model.Load().version,
		ModelSwaps:   e.swaps.Load(),
		Replicas:     int(e.liveReplicas.Load()),
		Resizes:      e.resizes.Load(),
	}
	if bat > 0 {
		s.BatchOccupancy = float64(reqs) / float64(bat)
	}
	if e.adaptive {
		s.SLOMs = metrics.Ms(e.cfg.SLO)
		maxB, maxD := e.policy()
		s.CurMaxBatch = maxB
		s.CurMaxDelayMs = metrics.Ms(maxD)
		s.SLOBreaches = e.sloBreaches.Load()
	}
	return s
}

// gather fills b with the next batch; only the token holder runs it. It
// blocks for a first request and takes what else is queued, up to the
// policy's ceiling. A non-full batch then holds only if holdOpen says so,
// and ships once ŝ(n), the service time of the class it would ship on,
// passes with no arrival, or MaxDelay after the hold began: a straggler
// that came later would be served no later by the next batch. Arrivals are
// timed when the gatherer finds them, so its own lateness is not a gap. The
// hold spins — probe, yield the processor and the core — on a replica that
// is idle anyway. After Close it holds nothing and returns an empty batch
// once the queue is drained.
func (e *Engine) gather(b []*request) []*request {
	var arrived time.Time // enqueue time of the request before the first
	for len(b) == 0 {
		var r *request
		select {
		case r = <-e.queue:
		case <-e.stop:
			select {
			case r = <-e.queue:
			default:
				return b
			}
		}
		arrived, e.lastEnq = e.lastEnq, r.enq
		if !e.lapsed(r) {
			b = append(b, r)
		}
	}
	// The policy is read once per batch: in static mode the configured
	// constants, in adaptive mode whatever the controller decided at the
	// last window boundary.
	maxBatch, maxDelay := e.policy()
	var shipAt time.Time // zero: ship with what is queued
	seen := time.Now()   // when the gatherer last found a request
	select {
	case <-e.stop:
	default:
		if holdOpen(b[0].enq, arrived, e.lastAnswer(), e.svcEstimate(1)) {
			shipAt = seen.Add(maxDelay)
		}
	}
	for len(b) < maxBatch {
		select {
		case r := <-e.queue:
			e.lastEnq = r.enq
			if !e.lapsed(r) {
				b = append(b, r)
			}
			seen = time.Now()
			continue
		default:
		}
		now := time.Now()
		if shipAt.IsZero() || !now.Before(seen.Add(e.svcEstimate(len(b)))) {
			break
		}
		if !now.Before(shipAt) {
			e.holdsExpired.Add(1)
			break
		}
		runtime.Gosched()
		yieldCPU()
	}
	return b
}

// holdOpen is the straggler gate: a non-full batch whose first request was
// enqueued at first holds only if, within one class-1 service time s1
// before first, another request arrived (prev) or a batch was answered
// (answered), which releases closed-loop callers. An event at or after first
// counts too; a zero time is one that never happened, and a zero s1 (no
// class measured yet) never holds. A request to a service idle for longer
// than one forward ships at once: no straggler can come.
func holdOpen(first, prev, answered time.Time, s1 time.Duration) bool {
	return s1 > 0 && (first.Sub(prev) < s1 || first.Sub(answered) < s1)
}

// svcEstimate returns ŝ(n): the service-time estimate of the class a batch of
// n runs on, or, while that class is unmeasured, of the largest measured
// smaller class; zero when none is.
func (e *Engine) svcEstimate(n int) time.Duration {
	for ci := e.classOf(n); ci >= 0; ci-- {
		if ns := e.classMeters[ci].ewmaNs.Load(); ns > 0 {
			return time.Duration(ns)
		}
	}
	return 0
}

// classOf returns the index of the smallest batch class that holds n.
func (e *Engine) classOf(n int) int {
	ci := 0
	for e.classes[ci] < n {
		ci++
	}
	return ci
}

// lastAnswer returns when the last batch was answered (zero: never).
func (e *Engine) lastAnswer() time.Time {
	if ns := e.answeredNs.Load(); ns > 0 {
		return e.epoch.Add(time.Duration(ns))
	}
	return time.Time{}
}

// policy returns the batching policy in force: the configured constants in
// static mode, the controller's latest decision in adaptive mode.
func (e *Engine) policy() (maxBatch int, maxDelay time.Duration) {
	if !e.adaptive {
		return e.cfg.MaxBatch, e.cfg.MaxDelay
	}
	return int(e.curBatch.Load()), time.Duration(e.curDelayNs.Load())
}

// lapsed sheds a dequeued request that aged past AdmitDeadline while
// queued, answering ErrOverloaded without spending a forward pass on it.
func (e *Engine) lapsed(r *request) bool {
	if e.cfg.AdmitDeadline <= 0 || time.Since(r.enq) <= e.cfg.AdmitDeadline {
		return false
	}
	e.shed.Add(1)
	r.err = ErrOverloaded
	r.resp <- Prediction{}
	return true
}

// runBatch executes one batch on a replica: pick the smallest batch class
// that holds it (building the slot on first use), rebind if the model was
// swapped, stage the samples into the slot's fixed-batch input, run the
// forward-only network, answer every request. Tail rows of a batch smaller
// than its class compute over stale staging data and are ignored. A batch
// that built its slot is no service sample for ŝ.
func (e *Engine) runBatch(r *replica, b []*request) {
	start := time.Now()
	ms := e.model.Load()
	ci := e.classOf(len(b))
	slot := r.slots[ci]
	built := slot == nil
	if built {
		slot = e.buildSlot(e.classes[ci])
		r.slots[ci] = slot
	}
	if ms != slot.bound {
		slot.net.Bind(ms.w, e.gradScratch)
		slot.bound = ms
	}
	xd := slot.x.Data()
	for i, req := range b {
		copy(xd[i*slot.vol:(i+1)*slot.vol], req.sample)
	}
	tensor.EnterTask() // replicas divide the kernel budget by count
	slot.net.Predict(slot.x, slot.preds, slot.conf)
	tensor.ExitTask()
	svc := time.Since(start)
	e.service.Record(svc)
	m := &e.classMeters[ci]
	m.sumNs.Add(int64(svc))
	m.n.Add(1)
	if !built {
		// ŝ falls to a faster batch at once and rises an eighth of the way
		// toward a slower one, so one stalled batch cannot stretch the holds.
		// Replicas of one class may race here and drop a sample.
		old := m.ewmaNs.Load()
		if old == 0 {
			old = int64(svc)
		}
		m.ewmaNs.Store(min(int64(svc), old+(int64(svc)-old)/8))
	}

	// Count the batch before answering it: a caller that holds its answer
	// must find itself in Stats.
	e.requests.Add(int64(len(b)))
	e.nbatches.Add(1)
	now := time.Now()
	for i, req := range b {
		lat := now.Sub(req.enq)
		e.latency.Record(lat)
		if e.adaptive {
			e.winLatency.Record(lat)
		}
		req.resp <- Prediction{Class: slot.preds[i], Confidence: slot.conf[i], Version: ms.version}
	}
	// Stamp the answer after the last reply: the straggler gate measures
	// the callers it released from the end of the releasing. Never zero:
	// every batch runs after New read epoch.
	e.answeredNs.Store(int64(time.Since(e.epoch)))
}

// control is the adaptive batching decision loop: every ControlEvery it
// swaps out the window meters (arrival count, request-latency distribution,
// per-class service sums), asks the controller for the next policy and
// publishes it for the gathering replicas. Runs only with SLO set.
func (e *Engine) control() {
	defer e.wg.Done()
	tick := time.NewTicker(e.cfg.ControlEvery)
	defer tick.Stop()
	ctrl := newController(e.cfg.SLO, e.cfg.MaxBatch)
	svc := make([]time.Duration, len(e.classes))
	last := time.Now()

	// Autoscaler state: decisions every scaleEvery control windows, over
	// the arrivals and completions accumulated meanwhile.
	var sc *scaler
	var scArrived, scDone int64
	var scLast time.Time
	ticks := 0
	if e.cfg.AutoScale > 0 {
		sc = newScaler(e.cfg.Replicas, e.cfg.AutoScale)
		scDone = e.requests.Load()
		scLast = last
	}
	for {
		var now time.Time
		select {
		case <-e.stop:
			return
		case now = <-tick.C:
		}
		elapsed := now.Sub(last)
		last = now
		if elapsed <= 0 {
			elapsed = e.cfg.ControlEvery
		}
		arrived := e.arrivals.Swap(0)
		count := e.winLatency.Count()
		var p99 time.Duration
		if count > 0 {
			p99 = e.winLatency.Quantile(0.99)
		}
		e.winLatency.Reset()
		for i := range e.classMeters {
			n := e.classMeters[i].n.Swap(0)
			sum := e.classMeters[i].sumNs.Swap(0)
			svc[i] = 0
			if n > 0 {
				svc[i] = time.Duration(sum / n)
			}
		}
		if count > 0 && p99 > e.cfg.SLO {
			e.sloBreaches.Add(1)
		}
		out := ctrl.step(controlInput{
			Rate:         float64(arrived) / elapsed.Seconds(),
			P99:          p99,
			Replicas:     int(e.liveReplicas.Load()),
			QueueDepth:   len(e.queue),
			ClassService: svc,
		})
		e.curBatch.Store(int64(out.MaxBatch))
		e.curDelayNs.Store(int64(out.MaxDelay))

		if sc != nil {
			scArrived += arrived
			if ticks++; ticks%scaleEvery == 0 {
				window := now.Sub(scLast).Seconds()
				scLast = now
				done := e.requests.Load()
				if window > 0 {
					n := sc.step(float64(scArrived)/window, float64(done-scDone)/window)
					e.applyScale(n)
				}
				scArrived, scDone = 0, done
			}
		}
	}
}

// getReq / putReq recycle request objects through a fixed free list (a
// channel, not a sync.Pool: pool entries can be dropped by GC, which would
// re-introduce steady-state allocations). Under burst the list may run dry;
// the fresh allocations feed back into it afterwards.
func (e *Engine) getReq() *request {
	select {
	case r := <-e.freeReqs:
		return r
	default:
		return &request{resp: make(chan Prediction, 1)}
	}
}

func (e *Engine) putReq(r *request) {
	r.sample = nil
	select {
	case e.freeReqs <- r:
	default:
	}
}
