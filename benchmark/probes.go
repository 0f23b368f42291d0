package main

import (
	"runtime"
	"sync"
	"time"

	"crossbow"
	"crossbow/internal/data"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
	"crossbow/internal/transport"
)

// Probes measure one layer in isolation, with nothing else running, at the
// shapes the workload uses. They give the per-layer numbers a trace of the
// whole run cannot: a forward/backward split by layer kind, kernel time
// without cache contention, a pipeline's drain rate with no consumer work.

// timeReps runs fn reps times and returns each call's duration in µs.
func timeReps(reps int, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0)) / 1e3
	}
	return out
}

// probeData measures the input pipeline alone: how fast it stages batches
// when the consumer does nothing but acquire and release, and how long the
// synthetic dataset takes to generate.
func probeData(s trainSpec, seed uint64, seconds int, r *report) (batchesPerSec float64) {
	cfg := data.ForModel(s.model, seed, 0)
	cfg.Train, cfg.Test = s.trainSamples, testSamples
	t0 := time.Now()
	train, _ := data.Synthesize(cfg)
	r.set("data.synthesize_s", time.Since(t0).Seconds(), 1)

	k := s.learners
	pipe := data.NewPipeline(train, data.PipelineConfig{
		Batch: s.batch, Slots: k * 2, Workers: min(4, max(1, k/2)), Seed: seed + 21,
	})
	defer pipe.Close()
	drain := func(n int) {
		for i := 0; i < n; i++ {
			sl, ok := pipe.Acquire()
			if !ok {
				panic("benchmark: pipeline closed under the probe")
			}
			pipe.Release(sl)
		}
	}
	n := probeReps(seconds, 20000)
	drain(n / 10) // warm
	t0 = time.Now()
	drain(n)
	batchesPerSec = float64(n) / time.Since(t0).Seconds()
	r.set("data.stage_batches_per_s", batchesPerSec, n)
	return batchesPerSec
}

// kindOf folds a top-level layer name into the reported kinds.
func kindOf(l nn.Layer) string {
	switch l.Name() {
	case "maxpool", "gavgpool":
		return "pool"
	case "flatten", "dropout":
		return "dense" // shape plumbing in front of the classifier
	}
	return l.Name()
}

// probeNN walks one learning task by hand — every top-level layer's Forward,
// the loss head, every Backward — timing each call, on a single goroutine
// with the workload's share of the kernel workers. It also counts the heap
// allocations of a whole task (expected: none).
func probeNN(s trainSpec, seed uint64, seconds int, r *report) (taskUS float64) {
	reps := probeReps(seconds, 300)
	dataCfg := data.ForModel(s.model, seed, 0)
	dataCfg.Train, dataCfg.Test = 64*s.batch, s.batch
	train, _ := data.Synthesize(dataCfg)
	net := nn.BuildScaled(s.model, s.batch, tensor.NewRNG(seed+7))
	w := net.Init(tensor.NewRNG(seed + 13))
	g := make([]float32, len(w))
	net.Bind(w, g)
	net.AttachArena(tensor.NewArena(net.MemPlan().ArenaElems))
	loss := nn.NewSoftmaxCE(s.batch, net.Classes)

	x := tensor.New(append([]int{s.batch}, train.Shape...)...)
	labels, idx := make([]int, s.batch), make([]int, s.batch)
	gather := func(rep int) {
		for i := range idx {
			idx[i] = (rep*s.batch + i) % train.Len()
		}
		train.Gather(idx, x, labels)
	}

	defer tensor.SetActiveLearners(tensor.SetActiveLearners(s.learners))
	layers := net.Layers()
	fwdKind, bwdKind := map[string]float64{}, map[string]float64{}
	var fwd, lossT, bwd []float64
	for rep := 0; rep < reps+reps/10; rep++ {
		gather(rep)
		warm := rep < reps/10
		tensor.ZeroSlice(g)
		var f, b float64
		h := x
		for _, l := range layers {
			t0 := time.Now()
			h = l.Forward(h, true)
			d := float64(time.Since(t0)) / 1e3
			f += d
			if !warm {
				fwdKind[kindOf(l)] += d
			}
		}
		t0 := time.Now()
		_, dy := loss.Loss(h, labels)
		lt := float64(time.Since(t0)) / 1e3
		for i := len(layers) - 1; i >= 0; i-- {
			t0 := time.Now()
			dy = layers[i].Backward(dy)
			d := float64(time.Since(t0)) / 1e3
			b += d
			if !warm {
				bwdKind[kindOf(layers[i])] += d
			}
		}
		if !warm {
			fwd, lossT, bwd = append(fwd, f), append(lossT, lt), append(bwd, b)
		}
	}
	r.set("nn.fwd_us_p50", median(fwd), reps)
	r.set("nn.loss_us_p50", median(lossT), reps)
	r.set("nn.bwd_us_p50", median(bwd), reps)
	for _, k := range layerKinds {
		r.set("nn.fwd_us."+k, fwdKind[k]/float64(reps), reps)
		r.set("nn.bwd_us."+k, bwdKind[k]/float64(reps), reps)
	}

	// Allocations of whole tasks through the network's own entry point.
	gather(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		tensor.ZeroSlice(g)
		net.LossAndGrad(x, labels)
	}
	runtime.ReadMemStats(&after)
	r.set("nn.task_allocs", float64(after.Mallocs-before.Mallocs)/100, 100)
	return median(fwd) + median(lossT) + median(bwd)
}

// probePredict times the forward-only serving walk at batch 1 and batch 8.
func probePredict(model nn.ModelID, params []float32, seconds int, r *report) {
	reps := probeReps(seconds, 1000)
	for _, batch := range []int{1, 8} {
		net := nn.BuildScaled(model, batch, tensor.NewRNG(1))
		net.Bind(params, make([]float32, len(params)))
		net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
		x := tensor.New(append([]int{batch}, net.InShape...)...)
		rng := tensor.NewRNG(2)
		for i := range x.Data() {
			x.Data()[i] = float32(rng.NormFloat64())
		}
		preds := make([]int, batch)
		predict := func() { net.Predict(x, preds, nil) }
		timeReps(reps/10, predict)
		name := "nn.predict_us_b1"
		if batch == 8 {
			name = "nn.predict_us_b8"
		}
		r.set(name, median(timeReps(reps, predict)), reps)
	}
}

// gemmShape is one GEMM of a learning task: C(m×n) += A(m×k)·B(k×n), in the
// variant (plain, A transposed, B transposed) the layer uses.
type gemmShape struct {
	m, k, n int
	variant byte // 'n', 'a' (GemmTA), 'b' (GemmTB)
}

// taskShapes lists the kernel calls of one learning task of the model: the
// GEMMs of every conv and dense layer (forward, weight gradient, input
// gradient), the conv lowerings, and the element counts the ReLU and
// residual-join loops sweep.
type taskShapes struct {
	gemms []gemmShape
	convs []tensor.ConvGeom
	elems []int
	batch int
}

func collectShapes(net *nn.Network, batch int) taskShapes {
	ts := taskShapes{batch: batch}
	var walk func(ls []nn.Layer)
	walk = func(ls []nn.Layer) {
		for _, l := range ls {
			switch v := l.(type) {
			case *nn.Conv2D:
				g := v.Geom
				ns := batch * g.ColCols()
				ts.convs = append(ts.convs, g)
				ts.gemms = append(ts.gemms,
					gemmShape{g.OutC, g.ColRows(), ns, 'n'}, // forward
					gemmShape{g.ColRows(), ns, g.OutC, 'n'}, // weight gradient
					gemmShape{g.ColRows(), g.OutC, ns, 'a'}, // input gradient: Wᵀ·dY
				)
			case *nn.Dense:
				ts.gemms = append(ts.gemms,
					gemmShape{batch, v.In, v.Out, 'b'},
					gemmShape{v.Out, batch, v.In, 'a'},
					gemmShape{batch, v.Out, v.In, 'n'},
				)
			case *nn.Residual:
				walk(v.Operators())
				ts.elems = append(ts.elems, batch*tensor.Volume(v.OutShape()))
			case *nn.ReLU:
				ts.elems = append(ts.elems, batch*tensor.Volume(v.OutShape()))
			}
		}
	}
	walk(net.Layers())
	return ts
}

func (ts taskShapes) flops() float64 {
	var f float64
	for _, g := range ts.gemms {
		f += 2 * float64(g.m) * float64(g.k) * float64(g.n)
	}
	return f
}

// probeTensor replays the task's kernel calls on scratch buffers, each class
// in its own loop, and reports time per task: an upper bound on what the
// kernels cost when their operands are cache-warm and nothing else runs.
func probeTensor(s trainSpec, taskUS float64, seconds int, r *report) {
	reps := probeReps(seconds, 200)
	net := nn.BuildScaled(s.model, s.batch, tensor.NewRNG(1))
	ts := collectShapes(net, s.batch)
	defer tensor.SetActiveLearners(tensor.SetActiveLearners(s.learners))

	biggest := 0
	for _, g := range ts.gemms {
		biggest = max(biggest, g.m*g.k, g.k*g.n, g.m*g.n)
	}
	for _, g := range ts.convs {
		biggest = max(biggest, s.batch*g.InVol(), g.ColRows()*s.batch*g.ColCols())
	}
	for _, e := range ts.elems {
		biggest = max(biggest, e)
	}
	rng := tensor.NewRNG(3)
	fill := func() []float32 {
		b := make([]float32, biggest)
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		return b
	}
	a, b, c := fill(), fill(), fill()

	gemms := func(mode tensor.KernelMode) func() {
		return func() {
			for _, g := range ts.gemms {
				switch g.variant {
				case 'a':
					tensor.GemmTAMode(mode, 1, a, g.k, g.m, b, g.n, 0, c)
				case 'b':
					tensor.GemmTBMode(mode, 1, a, g.m, g.k, b, g.n, 0, c)
				default:
					tensor.GemmMode(mode, 1, a, g.m, g.k, b, g.n, 0, c)
				}
			}
		}
	}
	timeReps(reps/10, gemms(tensor.Deterministic))
	det := median(timeReps(reps, gemms(tensor.Deterministic)))
	timeReps(reps/10, gemms(tensor.Fast))
	fast := median(timeReps(reps, gemms(tensor.Fast)))

	// Steady state: the padding zeros are already in place (skipPad), as in
	// every task after a layer's first.
	im2col := median(timeReps(reps, func() {
		for _, g := range ts.convs {
			tensor.Im2colBatch(g, s.batch, a, c, true)
		}
	}))
	col2im := median(timeReps(reps, func() {
		for _, g := range ts.convs {
			tensor.Col2imBatch(g, s.batch, c, b)
		}
	}))
	elem := median(timeReps(reps, func() {
		for _, e := range ts.elems {
			tensor.ReluFwd(c[:e], a[:e])
			tensor.ReluBwd(c[:e], b[:e], a[:e])
		}
	}))

	r.set("tensor.gemm_us_per_task", det, reps)
	r.set("tensor.im2col_us_per_task", im2col, reps)
	r.set("tensor.col2im_us_per_task", col2im, reps)
	r.set("tensor.elem_us_per_task", elem, reps)
	r.set("tensor.flops_per_task", ts.flops(), len(ts.gemms))
	r.set("tensor.gemm_gflops_det", ts.flops()/det/1e3, reps)
	r.set("tensor.gemm_gflops_fast", ts.flops()/fast/1e3, reps)
	if taskUS > 0 {
		r.set("tensor.gemm_share_of_task", det/taskUS, reps)
	}
}

// probeSim times the simulated hardware plane a Train call runs before it
// trains anything.
func probeSim(cfg crossbow.Config, r *report) error {
	var secs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := crossbow.Throughput(cfg); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.set("sim.hardware_plane_s", median(secs), len(secs))
	return nil
}

// probeIdleAllReduce runs the all-reduce between ranks in-process nodes with
// no compute beside it: the protocol's own cost for a model-sized buffer.
func probeIdleAllReduce(ranks, elems, seconds int, r *report) error {
	rounds := probeReps(seconds, 300)
	addrs, lns, err := listeners(ranks)
	if err != nil {
		return err
	}
	nodes := make([]*transport.Node, ranks)
	for rank := range nodes {
		if nodes[rank], err = transport.Listen(transportConfig(rank, addrs, lns[rank])); err != nil {
			return err
		}
		defer nodes[rank].Close()
	}
	for _, n := range nodes {
		n.WaitPeers(bootstrapWait)
	}
	times := make([][]float64, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank, n := range nodes {
		wg.Add(1)
		go func(rank int, n *transport.Node) {
			defer wg.Done()
			buf := make([]float32, elems)
			for i := 0; i < rounds+rounds/10; i++ {
				t0 := time.Now()
				if _, err := n.AllReduce(buf); err != nil {
					errs[rank] = err
					return
				}
				if i >= rounds/10 {
					times[rank] = append(times[rank], float64(time.Since(t0))/1e3)
				}
			}
		}(rank, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.set("transport.idle_allreduce_us_p50", median(times[0]), rounds)
	return nil
}
