package nn

import (
	"fmt"
	"hash/fnv"

	"crossbow/internal/memplan"
	"crossbow/internal/tensor"
)

// This file is the bridge between the layer library and the §4.5 memory
// planner: instead of allocating activations and scratch at construction,
// layers *declare* their buffers to a task planner that walks one learning
// task in execution order (forward layers, loss, backward layers — residual
// internals included). The walk yields the real dataflow as a memplan.Graph
// at sub-operator granularity (conv col/dcol/packT scratch, batch-norm
// statistics, residual joins), memplan.PlanOffline turns it into a per-task
// arena layout, and AttachArena binds every declared buffer to its planned
// slice of one contiguous block.
//
// Correctness invariant: no planned buffer carries state from one task to
// the next. Every operator writes each element of a buffer before anything
// reads it — the conv lowering stores its padding zeros on every call
// (tensor/lowering.go) — so an arena's previous contents are irrelevant,
// which is what lets arenas migrate freely between learners through the
// shared online pools and makes a dirty caller-supplied block as good as a
// fresh one.

// bufKind classifies planned buffers for footprint statistics.
type bufKind uint8

// Buffer classes.
const (
	bufActivation bufKind = iota // forward outputs and caches read by backward
	bufScratch                   // lowering/staging scratch
	bufGradient                  // backward outputs (dL/dx chain)
)

// plannedBuf is one declared buffer: its size, its [produce, last-access]
// interval in the planning walk's tick order, and the layer field the
// planned slice binds to (exactly one of dst, dstI32, t is set).
type plannedBuf struct {
	name  string
	elems int
	kind  bufKind
	prod  int // tick at which the buffer is (first) written
	last  int // tick of the last access, read or write

	dst    *[]float32
	dstI32 *[]int32
	t      *tensor.Tensor

	off int // resolved arena offset, in elements
}

// taskPlanner drives one planning walk. Every declaration and every access
// advances a global tick, so declaration order is execution order and the
// lifetime intervals are exact.
type taskPlanner struct {
	tickN int
	bufs  []*plannedBuf
	// infer marks the forward-only walk: no backward pass will read what a
	// forward caches, so a layer may declare less (a conv no col).
	infer bool
}

func (p *taskPlanner) tick() int { t := p.tickN; p.tickN++; return t }

func (p *taskPlanner) add(b *plannedBuf) *plannedBuf {
	b.prod = p.tick()
	b.last = b.prod
	p.bufs = append(p.bufs, b)
	return b
}

// slice declares a buffer bound to a []float32 layer field.
func (p *taskPlanner) slice(name string, dst *[]float32, elems int, kind bufKind) *plannedBuf {
	return p.add(&plannedBuf{name: name, elems: elems, kind: kind, dst: dst})
}

// int32s declares an index buffer bound to a []int32 layer field; it is
// planned as float32 elements and attached through tensor.AsInt32.
func (p *taskPlanner) int32s(name string, dst *[]int32, elems int, kind bufKind) *plannedBuf {
	return p.add(&plannedBuf{name: name, elems: elems, kind: kind, dstI32: dst})
}

// shell declares a buffer backing a shell tensor.
func (p *taskPlanner) shell(name string, t *tensor.Tensor, kind bufKind) *plannedBuf {
	return p.add(&plannedBuf{name: name, elems: tensor.Volume(t.Shape()), kind: kind, t: t})
}

// touch records an access (read or write) to already-declared buffers at the
// current point of the walk. Nil entries (buffers outside the arena, e.g.
// the network input) are ignored.
func (p *taskPlanner) touch(bufs ...*plannedBuf) {
	t := p.tick()
	for _, b := range bufs {
		if b != nil && t > b.last {
			b.last = t
		}
	}
}

// arenaLayer is implemented by every built-in layer: planFwd and planBwd
// mirror Forward and Backward at buffer granularity, declaring outputs and
// touching inputs in execution order. planFwd receives the layer's input
// buffer (nil when it lives outside the arena) and returns its output
// buffer; planBwd receives the incoming gradient buffer and returns the
// layer's input-gradient buffer.
//
// Sub-op rule: declare ALL outputs of one kernel step before touching its
// inputs, and include the step's secondary outputs in that closing touch.
// An input touched after the outputs outlives them in the interval model,
// so the planner can never hand an output the input's slot — which matters
// because kernels read their inputs interleaved with output writes
// (batch-norm scans x across the whole channel loop, GEMMs stream operands
// panel by panel). Touching the secondary outputs (batch-norm statistics,
// pool argmax, dropout keep) alongside makes the step's siblings mutually
// live too: without it, a sibling nothing later reads — which is exactly
// what happens to backward-only caches in the forward-only serving plan —
// would die at its declaration tick and could be overlaid onto the primary
// output it is written interleaved with.
type arenaLayer interface {
	planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf
	planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf
}

// MemPlan is a network's planned task memory: the real dataflow graph, the
// offline buffer assignment, and the arena layout derived from it.
type MemPlan struct {
	// Graph is the learning task's operator graph, one op per buffer.
	Graph *memplan.Graph
	// Plan is the offline buffer assignment over Graph.
	Plan *memplan.Plan

	bufs []*plannedBuf

	// ArenaElems is the total arena size in elements.
	ArenaElems int
	// NaiveElems is the unplanned footprint: one slot per declared buffer.
	NaiveElems int

	key string
}

// ArenaBytes returns the planned per-task footprint in bytes.
func (m *MemPlan) ArenaBytes() int64 { return int64(m.ArenaElems) * 4 }

// NaiveBytes returns the footprint without buffer reuse.
func (m *MemPlan) NaiveBytes() int64 { return int64(m.NaiveElems) * 4 }

// Savings returns the fraction of the naive allocation the plan avoids.
func (m *MemPlan) Savings() float64 {
	if m.NaiveElems == 0 {
		return 0
	}
	return 1 - float64(m.ArenaElems)/float64(m.NaiveElems)
}

// Buffers returns the number of declared buffers.
func (m *MemPlan) Buffers() int { return len(m.bufs) }

// Key identifies the plan's exact layout. Two networks share task arenas
// through the online pools only when their keys match, which guarantees
// every buffer sits at the same offset with the same geometry — the
// invariant that makes pooled arenas interchangeable across learners.
func (m *MemPlan) Key() string { return m.key }

// KindElems returns the total elements declared under a buffer class.
func (m *MemPlan) kindElems(k bufKind) int {
	n := 0
	for _, b := range m.bufs {
		if b.kind == k {
			n += b.elems
		}
	}
	return n
}

// ActivationElems returns elements declared as activations (outputs and
// forward caches) — the quantity §4.5's reuse attacks.
func (m *MemPlan) ActivationElems() int { return m.kindElems(bufActivation) }

// intervalsOverlap reports whether two planned buffers' lifetimes overlap.
func intervalsOverlap(a, b *plannedBuf) bool {
	return a.prod <= b.last && b.prod <= a.last
}

// checkPlan verifies the defining safety invariant against the *exact*
// lifetime intervals of the planning walk (a stronger check than the graph
// approximation): two buffers may share arena ranges only if their
// intervals are disjoint.
func (m *MemPlan) checkPlan() error {
	type rng struct{ lo, hi int }
	ranges := make([]rng, len(m.bufs))
	for i, b := range m.bufs {
		ranges[i] = rng{b.off, b.off + b.elems}
	}
	for i, a := range m.bufs {
		for j := i + 1; j < len(m.bufs); j++ {
			b := m.bufs[j]
			if ranges[i].lo >= ranges[j].hi || ranges[j].lo >= ranges[i].hi {
				continue // disjoint arena ranges
			}
			if intervalsOverlap(a, b) {
				return fmt.Errorf("nn: buffers %s [%d,%d] and %s [%d,%d] share arena range with live overlap",
					a.name, a.prod, a.last, b.name, b.prod, b.last)
			}
		}
	}
	return nil
}

// planForward runs the forward half of a planning walk: every layer's
// planFwd in execution order, returning the logits buffer. The network input
// is staged by the data pipeline (or the serving batcher) and lives outside
// the arena; its channel-major copy, where a network needs one (inCM), is the
// walk's first buffer.
func (n *Network) planForward(p *taskPlanner) *plannedBuf {
	var cur *plannedBuf
	if n.inCM != nil {
		cur = p.shell("net.incm", n.inCM, bufActivation)
	}
	for _, l := range n.layers {
		al, ok := l.(arenaLayer)
		if !ok {
			// Foreign layer: it manages its own buffers; its input must stay
			// live for its backward pass, which we cannot see — keep it live
			// to the end of the task.
			if cur != nil {
				cur.last = 1 << 30
			}
			cur = nil
			continue
		}
		cur = al.planFwd(p, cur)
	}
	return cur
}

// planMemory runs the full learning-task planning walk (forward, loss,
// backward) over the network and lays out the arena.
func (n *Network) planMemory() *MemPlan {
	p := &taskPlanner{}
	cur := n.planForward(p)
	// Loss head.
	dcur := n.loss.planLoss(p, cur)
	// Backward walk.
	for i := len(n.layers) - 1; i >= 0; i-- {
		al, ok := n.layers[i].(arenaLayer)
		if !ok {
			dcur = nil
			continue
		}
		dcur = al.planBwd(p, dcur)
	}
	return n.lowerPlan(p, "task")
}

// planInference runs the forward-only planning walk: every layer's planFwd
// plus the loss head's softmax probabilities (Predict's output), no
// backward. Forward caches that only backward reads (batch-norm x̂, conv
// im2col scratch lifetimes, pre-activation copies) die immediately after
// the consuming layer in this walk, so the planner reuses their slots
// aggressively, and a conv that reads its input in place when it is not
// training (Conv2D.colFree) declares no col at all — a serving arena is a
// fraction of the training arena for the same batch size, which is what lets
// a prediction runtime afford one arena per replica (DESIGN.md §11).
func (n *Network) planInference() *MemPlan {
	p := &taskPlanner{infer: true}
	cur := n.planForward(p)
	n.loss.planProbs(p, cur)
	return n.lowerPlan(p, "infer")
}

// lowerPlan turns a completed planning walk into a MemPlan: the walk is
// lowered into a memplan.Graph, PlanOffline assigns buffers, and the arena
// layout is the plan's slots end to end. prefix namespaces the plan key, so
// training and inference arenas — different layouts over the same network —
// can never be confused in a shared pool.
func (n *Network) lowerPlan(p *taskPlanner, prefix string) *MemPlan {
	m := &MemPlan{bufs: p.bufs}

	// Lower the walk into a memplan.Graph: one op per buffer in declaration
	// (= production) order; each buffer's consumer is the last op produced
	// while it is still live (the next op at the least), so the planner may
	// hand its slot to the very next one — exactly when the walk says it is
	// dead. The last buffer has no consumer: PlanOffline holds unread outputs
	// to the end.
	g := &memplan.Graph{Ops: make([]memplan.Op, len(m.bufs))}
	for i, b := range m.bufs {
		m.NaiveElems += b.elems
		g.Ops[i] = memplan.Op{Name: b.name, OutBytes: int64(b.elems) * 4}
	}
	for i, b := range m.bufs {
		k := min(i+1, len(m.bufs)-1)
		for k+1 < len(m.bufs) && m.bufs[k+1].prod <= b.last {
			k++
		}
		if k > i {
			g.Ops[k].Inputs = append(g.Ops[k].Inputs, i)
		}
	}
	plan, err := memplan.PlanOffline(g)
	if err != nil {
		panic(fmt.Sprintf("nn: memory planning failed: %v", err))
	}
	m.Graph, m.Plan = g, plan

	// Arena layout: the planned slots, end to end.
	slotOff := make([]int, len(plan.Buffers))
	off := 0
	for s, bytes := range plan.Buffers {
		slotOff[s] = off
		off += int(bytes / 4)
	}
	for i, b := range m.bufs {
		b.off = slotOff[plan.Assign[i]]
	}
	m.ArenaElems = off

	if err := m.checkPlan(); err != nil {
		panic(err)
	}

	// Layout key: batch, arena size and every (name, offset, size) triple.
	h := fnv.New64a()
	fmt.Fprintf(h, "b%d|%d", n.Batch, m.ArenaElems)
	for _, b := range m.bufs {
		fmt.Fprintf(h, "|%s@%d+%d", b.name, b.off, b.elems)
	}
	m.key = fmt.Sprintf("%s/b%d/%016x", prefix, n.Batch, h.Sum64())
	return m
}

// MemPlan returns the network's planned task memory, computing it on first
// use. The plan is structural: it depends only on the layer stack and batch
// size, never on parameters or data.
func (n *Network) MemPlan() *MemPlan {
	if n.fused {
		panic("nn: training memory plan on a fused (inference-only) network")
	}
	if n.memPlan == nil {
		n.memPlan = n.planMemory()
	}
	return n.memPlan
}

// InferPlan returns the network's planned forward-only (serving) memory,
// computing it on first use. Like MemPlan it is structural; unlike MemPlan
// it covers only the buffers a Predict call touches, so its arena is much
// smaller. A network executes against one plan at a time: attach either a
// training arena (AttachArena) or an inference arena
// (AttachInferenceArena), not both interleaved — serving replicas are
// inference-only networks, learner replicas training-only.
func (n *Network) InferPlan() *MemPlan {
	if n.inferPlan == nil {
		n.inferPlan = n.planInference()
	}
	return n.inferPlan
}

// AttachArena binds every planned buffer to its slice of the given arena,
// which must hold at least MemPlan().ArenaElems elements. Layers whose
// buffers were privately (lazily) allocated are rebound to the arena.
// Attaching is cheap and allocation-free in steady state, so the runtime
// re-attaches per learning task as arenas circulate through the shared
// §4.5 pools; arenas produced for the same plan key are fully
// interchangeable, and the arena's previous contents never matter (see the
// invariant at the top of this file). Re-attaching the already-attached
// arena is a no-op.
func (n *Network) AttachArena(a tensor.Arena) { n.attachPlan(n.MemPlan(), a) }

// AttachInferenceArena binds every buffer of the forward-only plan to its
// slice of the given arena, which must hold at least
// InferPlan().ArenaElems elements. Semantics match AttachArena (no-op
// re-attach, allocation-free in steady state); only the plan differs.
// Buffers outside the inference plan (the backward chain) are untouched and
// must never be exercised against an inference arena — Predict and Evaluate
// are the supported entry points.
func (n *Network) AttachInferenceArena(a tensor.Arena) { n.attachPlan(n.InferPlan(), a) }

func (n *Network) attachPlan(m *MemPlan, a tensor.Arena) {
	if a.Len() < m.ArenaElems {
		panic(fmt.Sprintf("nn: arena holds %d elements, plan needs %d", a.Len(), m.ArenaElems))
	}
	base := a.Base()
	if base != nil && base == n.arenaBase {
		return
	}
	for _, b := range m.bufs {
		s := a.Slice(b.off, b.elems)
		switch {
		case b.dst != nil:
			*b.dst = s
		case b.dstI32 != nil:
			*b.dstI32 = tensor.AsInt32(s)
		default:
			b.t.SetData(s)
		}
	}
	n.arenaBase = base
}

// ArenaAttached reports whether the network currently executes against an
// attached arena (as opposed to lazily self-allocated private buffers).
func (n *Network) ArenaAttached() bool { return n.arenaBase != nil }
