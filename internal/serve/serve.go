package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crossbow/internal/metrics"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
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

// Config configures a prediction engine.
type Config struct {
	// Model names the architecture Params belongs to. Required.
	Model nn.ModelID
	// Params is the model to serve — a published training snapshot
	// (core.Snapshot.Params) or a loaded checkpoint. The engine takes
	// ownership; do not modify after New. Required.
	Params []float32
	// Version tags the initial model (the snapshot round); reported with
	// every prediction and in Stats.
	Version int64
	// Replicas is the number of forward-only model replicas serving
	// batches concurrently, each with its own planned inference arena
	// (default 1). Replicas claim batches first-come-first-served.
	Replicas int
	// MaxBatch is the micro-batching ceiling: the dispatcher coalesces at
	// most MaxBatch queued requests into one forward pass (default 8).
	// Replicas are built at this batch size, so it also fixes the
	// per-replica arena.
	MaxBatch int
	// MaxDelay bounds how long a non-full batch waits for stragglers
	// after its first request arrives. Zero — the zero value, hence the
	// default — dispatches immediately with whatever is queued: minimum
	// latency, lower occupancy. Set a small positive delay (the binaries
	// default to 2ms) to trade per-request latency for batch occupancy.
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
	// already exceeds it, and again at dispatch if it aged past the budget
	// while queued (both return ErrOverloaded). This is deadline-aware
	// admission — work that would miss its deadline anyway is refused
	// before it wastes a replica's forward pass.
	AdmitDeadline time.Duration
	// SLO, when positive, turns on adaptive batching (DESIGN.md §16): the
	// engine targets this end-to-end p99 latency, treating MaxBatch as a
	// ceiling and MaxDelay as irrelevant — a measurement-driven controller
	// picks the batch size and straggler wait each control window from the
	// observed arrival rate and per-class service times. Zero (the default)
	// keeps the static MaxBatch/MaxDelay policy exactly as before.
	SLO time.Duration
	// ControlEvery is the adaptive controller's decision window (default
	// 100ms). Only meaningful with SLO set.
	ControlEvery time.Duration
	// AutoScale, when positive with SLO set, lets the engine resize its own
	// replica pool between MinReplicas(=Replicas) and AutoScale replicas,
	// tracking measured throughput-per-replica under the process worker
	// budget (the serving analogue of tensor.SetActiveLearners). Zero keeps
	// the fixed Replicas count.
	AutoScale int
}

func (c *Config) fillDefaults() error {
	if c.Model == "" {
		return errors.New("serve: Config.Model is required")
	}
	if _, ok := nn.ScaledConfigs[c.Model]; !ok {
		return fmt.Errorf("serve: unknown model %q", c.Model)
	}
	if len(c.Params) == 0 {
		return errors.New("serve: Config.Params is required (train a model or load a checkpoint)")
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
	if c.AutoScale > 0 && c.SLO <= 0 {
		return errors.New("serve: AutoScale requires an SLO (the autoscaler is driven by the same measurement windows)")
	}
	if c.AutoScale > 0 && c.AutoScale < c.Replicas {
		return fmt.Errorf("serve: AutoScale ceiling %d below Replicas %d", c.AutoScale, c.Replicas)
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
	// err is set (to ErrOverloaded) by the dispatcher before answering a
	// shed request; the resp channel send/receive gives the happens-before
	// edge that makes the plain field safe to read in Predict.
	err error
}

// batch is a dispatched group of requests, recycled like requests.
type batch struct {
	reqs []*request
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

// replica is one serving replica: in static mode a single slot at MaxBatch,
// in adaptive mode one slot per batch class, built lazily the first time the
// controller's chosen class actually runs (each slot owns a planned arena,
// so an unvisited class costs nothing). A partial batch runs on the smallest
// class that fits it instead of paying the full-MaxBatch forward pass — half
// of what made the fixed batch-32 configuration fall off. Slots are touched
// only by the replica's own goroutine.
type replica struct {
	id    int
	slots []*replicaSlot
}

// Engine is the batched prediction runtime. Create with New, submit with
// Predict from any number of goroutines, retire with Close.
type Engine struct {
	cfg   Config
	model atomic.Pointer[modelState]

	queue       chan *request
	batches     chan *batch
	freeReqs    chan *request
	freeBatches chan *batch
	stop        chan struct{} // tells the dispatcher to drain and exit

	mu     sync.RWMutex // guards closed against in-flight enqueues
	closed bool
	wg     sync.WaitGroup

	sampleVol   int
	gradScratch []float32 // shared Bind scratch; forward passes never write it

	// Adaptive batching state (SLO > 0). classes is the batch-size ladder
	// (a single MaxBatch entry in static mode); curBatch/curDelayNs are the
	// controller's live policy, read by the dispatcher per batch; the
	// window meters feed the next decision and are swapped out each
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
	// currently claim batches (== cfg.Replicas unless autoscaling);
	// desiredReplicas is the autoscaler's target — a replica goroutine
	// whose id exceeds it parks until scaled up again.
	liveReplicas    atomic.Int64
	desiredReplicas atomic.Int64
	resizes         atomic.Int64

	// Stats. occupancy = requests/batches; queuePeak is a CAS-maxed gauge.
	requests  atomic.Int64
	nbatches  atomic.Int64
	rejected  atomic.Int64
	shed      atomic.Int64
	swaps     atomic.Int64
	queuePeak atomic.Int64
	latency   metrics.LatencyRecorder
	service   metrics.LatencyRecorder
}

// classMeter accumulates one batch class's service time over a control
// window (lock-free; swapped out by the controller each tick).
type classMeter struct {
	sumNs atomic.Int64
	n     atomic.Int64
}

// New validates cfg, builds the replica pool (each replica plans and
// attaches its forward-only arena up front, so no allocation is left for
// the hot path) and starts the dispatcher and replica goroutines.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	probe := nn.BuildScaled(cfg.Model, cfg.MaxBatch, tensor.NewRNG(1))
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
		batches:     make(chan *batch, maxReplicas),
		freeReqs:    make(chan *request, cfg.QueueDepth+maxReplicas*cfg.MaxBatch),
		freeBatches: make(chan *batch, maxReplicas+2),
		stop:        make(chan struct{}),
		sampleVol:   tensor.Volume(probe.InShape),
		gradScratch: make([]float32, probe.ParamSize()),
	}
	e.model.Store(&modelState{w: cfg.Params, version: cfg.Version})
	e.adaptive = cfg.SLO > 0
	e.classes = []int{cfg.MaxBatch}
	if e.adaptive {
		e.classes = batchClasses(cfg.MaxBatch)
	}
	e.classMeters = make([]classMeter, len(e.classes))
	// The controller starts at the smallest class — the lowest-latency
	// answer to an unknown load — and grows within a window or two when the
	// measured rate demands it. Static mode pins the configured policy.
	e.curBatch.Store(int64(e.classes[0]))
	e.liveReplicas.Store(int64(cfg.Replicas))
	e.desiredReplicas.Store(int64(cfg.Replicas))

	probeSlot := e.makeSlot(probe, cfg.MaxBatch)
	for i := 0; i < maxReplicas; i++ {
		r := &replica{id: i, slots: make([]*replicaSlot, len(e.classes))}
		if i == 0 {
			// The validation probe is a fully built MaxBatch net; keep it as
			// replica 0's MaxBatch slot instead of throwing it away.
			r.slots[len(e.classes)-1] = probeSlot
		} else if !e.adaptive {
			// Static mode keeps its original contract: every replica fully
			// built before New returns, nothing left for the hot path.
			r.slots[0] = e.buildSlot(cfg.MaxBatch)
		}
		e.wg.Add(1)
		go e.replicaLoop(r)
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.dispatch()
	}()
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

// replicaLoop claims batches first-come-first-served until the batch
// channel closes. A replica whose id is at or above the autoscaler's target
// parks — polling rather than claiming, so scaled-away capacity stops
// pulling work within a poll tick but its built slots survive for the next
// scale-up.
func (e *Engine) replicaLoop(r *replica) {
	defer e.wg.Done()
	for {
		if int64(r.id) >= e.desiredReplicas.Load() {
			select {
			case <-e.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		b, ok := <-e.batches
		if !ok {
			return
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
	// the dispatcher to drain: every request that passes this gate is
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

// Close stops accepting requests, serves everything already queued, waits
// for the dispatcher and replicas to finish, and returns. Safe to call
// once; Predict calls racing Close either complete normally or return
// ErrClosed.
func (e *Engine) Close() {
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

// Stats returns a point-in-time snapshot of the runtime's behaviour.
func (e *Engine) Stats() metrics.ServingStats {
	reqs, bat := e.requests.Load(), e.nbatches.Load()
	s := metrics.ServingStats{
		Requests:     reqs,
		Batches:      bat,
		Rejected:     e.rejected.Load(),
		Shed:         e.shed.Load(),
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

// dispatch is the micro-batching scheduler: it blocks for a first request,
// then coalesces up to MaxBatch-1 more, waiting at most MaxDelay once the
// batch has an occupant (a full batch dispatches immediately; MaxDelay 0
// takes only what is already queued). On stop it keeps batching — without
// the delay — until the queue is drained, so every accepted request is
// answered.
func (e *Engine) dispatch() {
	defer close(e.batches)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		var first *request
		select {
		case first = <-e.queue:
		case <-e.stop:
			e.drain()
			return
		}
		if e.lapsed(first) {
			continue
		}
		// The policy is read once per batch: in static mode the configured
		// constants, in adaptive mode whatever the controller decided at the
		// last window boundary.
		maxBatch, maxDelay := e.policy()
		b := e.getBatch()
		b.reqs = append(b.reqs[:0], first)
		if maxDelay > 0 {
			timer.Reset(maxDelay)
			expired := false
			for !expired && len(b.reqs) < maxBatch {
				select {
				case r := <-e.queue:
					if !e.lapsed(r) {
						b.reqs = append(b.reqs, r)
					}
				case <-timer.C:
					expired = true
				case <-e.stop:
					expired = true // drain after this batch ships
				}
			}
			if !expired && !timer.Stop() {
				<-timer.C
			}
		} else {
		gather:
			for len(b.reqs) < maxBatch {
				select {
				case r := <-e.queue:
					if !e.lapsed(r) {
						b.reqs = append(b.reqs, r)
					}
				default:
					break gather
				}
			}
		}
		e.batches <- b
	}
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
// queued, answering ErrOverloaded without spending a replica on it. The
// drain path deliberately skips this check: every request accepted before
// Close is answered, deadline or not.
func (e *Engine) lapsed(r *request) bool {
	if e.cfg.AdmitDeadline <= 0 || time.Since(r.enq) <= e.cfg.AdmitDeadline {
		return false
	}
	e.shed.Add(1)
	r.err = ErrOverloaded
	r.resp <- Prediction{}
	return true
}

// drain batches the queue's remnant after stop, with no straggler waits.
func (e *Engine) drain() {
	for {
		var b *batch
	fill:
		for b == nil || len(b.reqs) < e.cfg.MaxBatch {
			select {
			case r := <-e.queue:
				if b == nil {
					b = e.getBatch()
					b.reqs = b.reqs[:0]
				}
				b.reqs = append(b.reqs, r)
			default:
				break fill
			}
		}
		if b == nil {
			return
		}
		e.batches <- b
	}
}

// runBatch executes one batch on a replica: pick the smallest batch class
// that fits it (building the slot on first use in adaptive mode), rebind if
// the model was swapped, stage the samples into the slot's fixed-batch
// input, run the forward-only network, answer every request. Tail rows of a
// partial batch compute over stale staging data and are ignored.
func (e *Engine) runBatch(r *replica, b *batch) {
	start := time.Now()
	ms := e.model.Load()
	ci := 0
	if e.adaptive {
		for e.classes[ci] < len(b.reqs) {
			ci++
		}
	}
	slot := r.slots[ci]
	if slot == nil {
		slot = e.buildSlot(e.classes[ci])
		r.slots[ci] = slot
	}
	if ms != slot.bound {
		slot.net.Bind(ms.w, e.gradScratch)
		slot.bound = ms
	}
	xd := slot.x.Data()
	for i, req := range b.reqs {
		copy(xd[i*slot.vol:(i+1)*slot.vol], req.sample)
	}
	slot.net.Predict(slot.x, slot.preds, slot.conf)
	svc := time.Since(start)
	e.service.Record(svc)
	if e.adaptive {
		e.classMeters[ci].sumNs.Add(int64(svc))
		e.classMeters[ci].n.Add(1)
	}

	// Count the batch before answering it: a caller that holds its answer
	// must find itself in Stats.
	e.requests.Add(int64(len(b.reqs)))
	e.nbatches.Add(1)
	now := time.Now()
	for i, req := range b.reqs {
		lat := now.Sub(req.enq)
		e.latency.Record(lat)
		if e.adaptive {
			e.winLatency.Record(lat)
		}
		req.resp <- Prediction{Class: slot.preds[i], Confidence: slot.conf[i], Version: ms.version}
	}
	e.putBatch(b)
}

// control is the adaptive batching decision loop: every ControlEvery it
// swaps out the window meters (arrival count, request-latency distribution,
// per-class service sums), asks the controller for the next policy and
// publishes it for the dispatcher. Runs only with SLO set.
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
		// An autoscaling engine owns the process's learner-count division
		// of the worker budget (it is a dedicated serving process).
		tensor.SetActiveLearners(e.cfg.Replicas)
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

func (e *Engine) getBatch() *batch {
	select {
	case b := <-e.freeBatches:
		return b
	default:
		return &batch{reqs: make([]*request, 0, e.cfg.MaxBatch)}
	}
}

func (e *Engine) putBatch(b *batch) {
	b.reqs = b.reqs[:0]
	select {
	case e.freeBatches <- b:
	default:
	}
}
