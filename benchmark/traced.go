package main

import (
	"fmt"
	"sync"

	"crossbow/internal/ckpt"
	"crossbow/internal/core"
	"crossbow/internal/data"
	"crossbow/internal/engine"
	"crossbow/internal/memplan"
	"crossbow/internal/metrics"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
	"crossbow/internal/transport"
)

// The traced run wires the layers the way core.Train and the root package's
// TCP path do — same seeds, same build order, same pipeline shape — but owns
// every closure it hands to engine.RuntimeConfig and the exchanger it hands
// to core.DistClusterSMA, and times each call as a span. Under lockstep the
// final parameters must equal crossbow.Train's bit for bit, which is the
// check that this file measures the same computation.

// rankTrace is one rank's lanes. main is written by the goroutine that
// calls RunEpoch (epochs, evaluation, and under lockstep every step, publish
// and exchange); round by whichever learner folds an FCFS round, inside the
// runtime's critical section; learner[j] by learner j's worker goroutine.
type rankTrace struct {
	main, round *lane
	learner     []*lane
	epoch       int // main-lane index of the running epoch span
	open        int // main-lane index of the innermost open step/publish/eval span (-1: none)
}

// newRankTrace preallocates a rank's lanes for a phase of the given length.
// The main lane must be the group's first: span parents index into it.
func newRankTrace(t *tracer, phase string, rank int, s trainSpec, epochs int) *rankTrace {
	iters := s.itersPerEpoch() * epochs
	rt := &rankTrace{open: -1}
	group := t.newGroup()
	name := func(lane string) string { return fmt.Sprintf("%s.rank%d.%s", phase, rank, lane) }
	rt.main = t.lane(name("main"), rank, group, 2*epochs+4*iters+16)
	rt.round = t.lane(name("round"), rank, group, 2*iters+16)
	for j := 0; j < s.learners; j++ {
		rt.learner = append(rt.learner, t.lane(name(fmt.Sprintf("learner%d", j)), rank, group, 4*iters+16))
	}
	return rt
}

// onMain times fn as a main-lane span nested in whatever main-lane span is
// open.
func (rt *rankTrace) onMain(kind spanKind, fn func()) {
	parent := rt.open
	if parent < 0 {
		parent = rt.epoch
	}
	i := rt.main.begin(kind, 0, parent)
	prev := rt.open
	if i >= 0 {
		rt.open = i
	}
	fn()
	rt.open = prev
	rt.main.end(i)
}

// tracedExchanger is the core.GlobalExchanger handed to DistClusterSMA: the
// transport node behind a span per call.
type tracedExchanger struct {
	node *transport.Node
	rt   *rankTrace
}

func exchangeRound(r transport.Round) core.ExchangeRound {
	return core.ExchangeRound{Seq: r.Seq, Participants: r.Participants, Restart: r.Restart, Aborted: r.Aborted}
}

func (e tracedExchanger) AllReduce(buf []float32) (r core.ExchangeRound, err error) {
	e.rt.onMain(spAllReduce, func() {
		var tr transport.Round
		tr, err = e.node.AllReduce(buf)
		r = exchangeRound(tr)
	})
	return r, err
}

func (e tracedExchanger) BeginAllReduce(buf []float32) (p core.PendingExchange, err error) {
	e.rt.onMain(spBeginAllReduce, func() {
		var pr *transport.PendingRound
		if pr, err = e.node.BeginAllReduce(buf); err == nil {
			p = tracedPending{pr, e.rt}
		}
	})
	return p, err
}

type tracedPending struct {
	p  *transport.PendingRound
	rt *rankTrace
}

func (w tracedPending) Poll() bool { return w.p.Poll() }

func (w tracedPending) Wait() (r core.ExchangeRound, err error) {
	w.rt.onMain(spAllReduce, func() {
		var tr transport.Round
		tr, err = w.p.Wait()
		r = exchangeRound(tr)
	})
	return r, err
}

// snapshotHolder keeps the latest published cluster model for rejoining
// peers, as the root package's TCP path does.
type snapshotHolder struct {
	mu    sync.Mutex
	model nn.ModelID
	round int
	last  []float32
}

func (h *snapshotHolder) publish(round int, params []float32) {
	h.mu.Lock()
	h.round, h.last = round, params
	h.mu.Unlock()
}

func (h *snapshotHolder) checkpoint() *ckpt.Checkpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.last == nil {
		return nil
	}
	return &ckpt.Checkpoint{Model: string(h.model), SnapshotRound: int64(h.round), SnapshotIter: int64(h.round), Params: h.last}
}

// tracedResult is what one rank's traced training measured besides spans.
type tracedResult struct {
	params    []float32
	series    []metrics.EpochPoint
	stats     engine.RuntimeStats
	pool      memplan.PoolStats
	plan      *nn.MemPlan
	transport metrics.TransportStats
}

// clusterLink is a traced rank's place in the cluster; nil for the
// single-server workloads.
type clusterLink struct {
	rank    int
	cfg     transport.Config
	overlap bool
}

// tracedTrain trains s for the given epochs with every layer call timed. It
// mirrors core.Train (and, with link set, the root package's trainNodeTCP)
// step for step.
func tracedTrain(s trainSpec, seed uint64, epochs int, link *clusterLink, rt *rankTrace) (*tracedResult, error) {
	if s.kernelThreads > 0 {
		tensor.SetWorkerBudget(s.kernelThreads)
	}
	k := s.learners
	lr := s.learnRate
	if lr == 0 {
		lr = core.DefaultLearnRate(s.model)
	}

	dataCfg := data.ForModel(s.model, seed, 0)
	dataCfg.Train, dataCfg.Test = s.trainSamples, testSamples
	masterRNG := tensor.NewRNG(seed + 7)
	train, test := data.Synthesize(dataCfg)

	nets := make([]*nn.Network, k)
	for j := range nets {
		nets[j] = nn.BuildScaled(s.model, s.batch, masterRNG.Split())
		nets[j].SetKernelMode(tensor.Deterministic)
	}
	w0 := nets[0].Init(tensor.NewRNG(seed + 13))
	ws, gs := make([][]float32, k), make([][]float32, k)
	for j := range nets {
		ws[j] = append([]float32(nil), w0...)
		gs[j] = make([]float32, len(w0))
		nets[j].Bind(ws[j], gs[j])
	}

	evalBatch := min(128, test.Len())
	evalNet := nn.BuildScaled(s.model, evalBatch, tensor.NewRNG(seed+99))
	evalNet.SetKernelMode(tensor.Deterministic)
	evalNet.AttachArena(tensor.NewArena(evalNet.MemPlan().ArenaElems))
	evalGrad := make([]float32, len(w0))
	evalX := tensor.New(append([]int{evalBatch}, test.Shape...)...)
	evalLabels, evalIdx := make([]int, evalBatch), make([]int, evalBatch)

	for _, net := range nets {
		net.MemPlan()
	}
	plan := nets[0].MemPlan()
	planKey, arenaBytes := plan.Key(), plan.ArenaBytes()
	pool := memplan.NewOnlinePlanner()
	pool.SetBudget(int64(tensor.WorkerBudget()+1) * arenaBytes)
	taskBufs := make([]*memplan.Buffer, k)

	smaCfg := core.SMAConfig{
		LearnRate: lr, Momentum: momentum, LocalMomentum: momentum, Tau: 1,
		StateRanges: nets[0].StateRanges(),
	}
	shuffleSeed := seed + 21

	// The optimiser: flat SMA, or one server of the networked two-level SMA.
	var sma *core.SMA
	var dist *core.DistClusterSMA
	var node *transport.Node
	holder := &snapshotHolder{model: s.model}
	if link != nil {
		cfg := link.cfg
		cfg.Snapshot = holder.checkpoint
		var err error
		if node, err = transport.Listen(cfg); err != nil {
			return nil, err
		}
		defer node.Close()
		node.WaitPeers(bootstrapWait)
		if snap, err := node.FetchSnapshot(warmStartWait); err != nil || snap != nil {
			return nil, fmt.Errorf("rank %d: cold bootstrap found a snapshot (%v)", link.rank, err)
		}
		dist = core.NewDistClusterSMA(core.ClusterSMAConfig{
			SMAConfig: smaCfg, TauGlobal: 1, OverlapGlobal: link.overlap,
		}, w0, k, tracedExchanger{node, rt})
		shuffleSeed = seed + 21 + 1_000_003*uint64(link.rank+1)
	} else {
		sma = core.NewSMA(smaCfg, w0, k)
	}
	central := func() []float32 {
		if dist != nil {
			return dist.Average()
		}
		return sma.Average()
	}

	pipe := data.NewPipeline(train, data.PipelineConfig{
		Batch: s.batch, Slots: k * 2, Workers: min(4, max(1, k/2)), Seed: shuffleSeed,
	})
	defer pipe.Close()
	defer tensor.SetActiveLearners(tensor.SetActiveLearners(k))

	span := func(j int, kind spanKind, fn func()) {
		l := rt.learner[j]
		i := l.begin(kind, j, rt.epoch)
		fn()
		l.end(i)
	}
	rc := engine.RuntimeConfig{
		Learners: k, Tau: 1, Pipeline: pipe,
		Task: func(j int, sl *data.Slot) (loss float64) {
			span(j, spTask, func() {
				tensor.ZeroSlice(gs[j])
				loss = nets[j].LossAndGrad(sl.X, sl.Labels)
			})
			return loss
		},
		AcquireTask: func(j int) {
			span(j, spAcquire, func() {
				b := pool.Acquire(planKey, arenaBytes, 1)
				taskBufs[j] = b
				nets[j].AttachArena(tensor.ArenaOf(b.Data))
			})
		},
		ReleaseTask: func(j int) {
			span(j, spRelease, func() {
				pool.Release(taskBufs[j])
				taskBufs[j] = nil
			})
		},
	}
	if s.sched == "fcfs" {
		corr := make([][]float32, k)
		for j := range corr {
			corr[j] = make([]float32, len(w0))
		}
		rc.Mode = engine.ModeFCFS
		rc.LocalStep = func(j int) { span(j, spLocalStep, func() { sma.LocalStep(j, ws[j], gs[j]) }) }
		rc.Contribute = func(j int) { span(j, spContribute, func() { sma.ContributeStep(j, ws[j], gs[j], corr[j]) }) }
		rc.Apply = func() {
			i := rt.round.begin(spApply, 0, rt.epoch)
			sma.ApplyContributions(corr)
			rt.round.end(i)
		}
	} else {
		rc.Mode = engine.ModeLockstep
		rc.Step = func() {
			rt.onMain(spStep, func() {
				prev := tensor.SetActiveLearners(1)
				if dist != nil {
					dist.Step(ws, gs)
				} else {
					sma.Step(ws, gs)
				}
				tensor.SetActiveLearners(prev)
			})
		}
	}
	if link != nil {
		// The TCP path publishes a snapshot every global round so a
		// rejoining peer always finds a fresh model.
		rc.Publish = func(round int) {
			rt.onMain(spPublish, func() {
				dist.Drain()
				holder.publish(round, append([]float32(nil), dist.Average()...))
			})
		}
	}
	run := engine.NewRuntime(rc)
	defer run.Close()

	res := &tracedResult{plan: plan}
	iters := s.itersPerEpoch()
	for epoch := 1; epoch <= epochs; epoch++ {
		rt.epoch = rt.main.begin(spEpoch, 0, -1)
		run.RunEpoch(iters)
		rt.main.end(rt.epoch)
		lossSum, lossCount := run.TakeEpochLoss()

		var acc float64
		rt.onMain(spEval, func() {
			if dist != nil {
				dist.Drain()
			}
			prev := tensor.SetActiveLearners(1)
			acc = evaluate(evalNet, central(), evalGrad, test, evalBatch, evalX, evalLabels, evalIdx)
			tensor.SetActiveLearners(prev)
		})
		res.series = append(res.series, metrics.EpochPoint{Epoch: epoch, TestAcc: acc, Loss: lossSum / float64(max(1, lossCount))})
	}
	if dist != nil {
		dist.Drain()
	}
	res.params = append([]float32(nil), central()...)
	res.stats = run.Stats()
	res.pool = pool.PoolStats()
	if node != nil {
		res.transport = node.Stats()
	}
	return res, nil
}

// evaluate is core's test-accuracy loop: whole batches only.
func evaluate(net *nn.Network, w, scratch []float32, test *data.Dataset, batch int, x *tensor.Tensor, labels, idx []int) float64 {
	net.Bind(w, scratch)
	correct, total := 0, 0
	for start := 0; start+batch <= test.Len(); start += batch {
		for i := range idx {
			idx[i] = start + i
		}
		test.Gather(idx, x, labels)
		correct += net.Evaluate(x, labels)
		total += batch
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
