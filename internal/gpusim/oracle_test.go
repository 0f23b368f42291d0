package gpusim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sweepDrain is the reference the marked drain must match: every stream of
// every device, in order, each as far as it goes, until a whole pass makes
// no progress. It ignores marks.
func sweepDrain(s *Sim) {
	for {
		progress := false
		for _, d := range s.devices {
			for _, st := range d.streams {
				for st.step() {
					progress = true
				}
			}
		}
		if !progress {
			return
		}
	}
}

// kernelStart is one kernel launch: its sequence number, stream, start
// instant, SM grant and duration.
type kernelStart struct {
	seq    uint64
	stream int
	at     float64
	grant  int
	dur    float64
}

// replay runs s to quiescence the way Sim.Run does, with drain in place of
// Sim.drain, and logs every kernel start. A drain runs at one instant, so
// every completion it pushed started at that instant.
func replay(s *Sim, drain func(), ids map[*Stream]int, log *[]kernelStart) float64 {
	seen := s.seq
	logStarts := func() {
		var fresh []kernelStart
		for _, c := range s.heap {
			if c.seq > seen {
				fresh = append(fresh, kernelStart{c.seq, ids[c.st], s.now, c.st.grant, c.st.dur})
			}
		}
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].seq < fresh[j].seq })
		*log = append(*log, fresh...)
		seen = s.seq
	}
	drain()
	logStarts()
	for len(s.heap) > 0 {
		c := s.heap.pop()
		s.now = c.t
		c.st.retire()
		drain()
		logStarts()
	}
	return s.now
}

// graphOp is one step of a random op graph.
type graphOp struct {
	kind   opKind // opKernel, opTask, opRecord, opWait; -1 creates a stream
	dev    int    // for a new stream
	stream int
	sms    int
	dur    float64
	plan   int
	ev     int
}

// opGraph is a random workload: device shape, task plans, and phases of
// ops, each phase run to quiescence before the next is enqueued (so later
// phases wait on events that have already fired).
type opGraph struct {
	devs, sms int
	plans     []*LearningTaskPlan
	phases    [][]graphOp
}

func randomGraph(seed int64) opGraph {
	r := rand.New(rand.NewSource(seed))
	smsChoices := []int{1, 2, 4, 8, 24}
	durChoices := []float64{-1, 0, 1, 2, 2, 2.5, 3, 7, 10}
	g := opGraph{devs: 1 + r.Intn(3), sms: smsChoices[r.Intn(len(smsChoices))]}
	demand := func() int { return r.Intn(g.sms + 3) } // 0 and above capacity too
	dur := func() float64 { return durChoices[r.Intn(len(durChoices))] }
	for p := 0; p < 1+r.Intn(3); p++ {
		plan := &LearningTaskPlan{}
		for k := 0; k < 1+r.Intn(5); k++ {
			plan.Kernels = append(plan.Kernels, PlannedKernel{SMs: demand(), DurUS: dur()})
		}
		g.plans = append(g.plans, plan)
	}
	streams, events, recorded := 0, 0, 0
	newStream := func() graphOp {
		streams++
		return graphOp{kind: -1, dev: r.Intn(g.devs)}
	}
	phases := 1 + r.Intn(3)
	for ph := 0; ph < phases; ph++ {
		var ops []graphOp
		if ph == 0 {
			for i := 0; i < g.devs+r.Intn(2*g.devs+2); i++ {
				ops = append(ops, newStream())
			}
		} else if r.Intn(2) == 0 {
			ops = append(ops, newStream()) // a stream born after events fired
		}
		for n := 5 + r.Intn(36); n > 0; n-- {
			st := r.Intn(streams)
			switch x := r.Intn(20); {
			case x < 9:
				ops = append(ops, graphOp{kind: opKernel, stream: st, sms: demand(), dur: dur()})
			case x < 11:
				ops = append(ops, graphOp{kind: opTask, stream: st, plan: r.Intn(len(g.plans))})
			case x < 15:
				ev := r.Intn(events + 1) // a fresh event, or one recorded before
				if ev == events {
					events++
				}
				recorded = max(recorded, ev+1)
				ops = append(ops, graphOp{kind: opRecord, stream: st, ev: ev})
			default:
				// Mostly events some stream records; now and then one
				// nobody has recorded yet, which may never fire.
				ev := r.Intn(recorded + 1)
				if ev == events {
					events++
				}
				ops = append(ops, graphOp{kind: opWait, stream: st, ev: ev})
			}
		}
		g.phases = append(g.phases, ops)
	}
	return g
}

// graphRun is what one engine made of a graph: each phase's end time,
// every device's Busy after the last phase, and the kernel-start log.
type graphRun struct {
	ends   []float64
	busy   []float64
	starts []kernelStart
}

// run builds the graph on a fresh simulator and runs each phase with
// runPhase, which drives the simulator to quiescence.
func (g opGraph) run(runPhase func(s *Sim, ids map[*Stream]int, log *[]kernelStart) float64) graphRun {
	s := NewSim(g.devs, g.sms)
	var streams []*Stream
	var events []*Event
	ids := map[*Stream]int{}
	event := func(i int) *Event {
		for len(events) <= i {
			events = append(events, s.NewEvent())
		}
		return events[i]
	}
	var out graphRun
	for _, phase := range g.phases {
		for _, o := range phase {
			switch o.kind {
			case -1:
				st := s.Device(o.dev).NewStream()
				ids[st] = len(streams)
				streams = append(streams, st)
			case opKernel:
				streams[o.stream].Kernel(o.sms, o.dur)
			case opTask:
				EnqueueLearningTask(streams[o.stream], g.plans[o.plan])
			case opRecord:
				streams[o.stream].Record(event(o.ev))
			case opWait:
				streams[o.stream].Wait(event(o.ev))
			}
		}
		out.ends = append(out.ends, runPhase(s, ids, &out.starts))
	}
	for _, d := range s.devices {
		out.busy = append(out.busy, d.Busy)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMarkedDrainMatchesSweep runs thousands of seeded random op graphs —
// several devices and streams, SM demands below and above capacity,
// duration ties, learning tasks, record/wait chains, waits on events that
// fired in an earlier phase or never fire — through the marked drain and
// through the full sweep, and requires the same kernel starts (sequence,
// stream, instant, grant, duration), phase end times and per-device Busy,
// bit for bit. Sim.Run itself must agree on the end times and Busy.
func TestMarkedDrainMatchesSweep(t *testing.T) {
	const graphs = 2500
	kernels := 0
	for seed := int64(1); seed <= graphs; seed++ {
		g := randomGraph(seed)
		sweep := g.run(func(s *Sim, ids map[*Stream]int, log *[]kernelStart) float64 {
			return replay(s, func() { sweepDrain(s) }, ids, log)
		})
		marked := g.run(func(s *Sim, ids map[*Stream]int, log *[]kernelStart) float64 {
			return replay(s, s.drain, ids, log)
		})
		direct := g.run(func(s *Sim, _ map[*Stream]int, _ *[]kernelStart) float64 { return s.Run() })
		kernels += len(sweep.starts)
		if !sameBits(marked.ends, sweep.ends) || !sameBits(marked.busy, sweep.busy) {
			t.Fatalf("graph %d: marked drain ends %v busy %v, sweep ends %v busy %v",
				seed, marked.ends, marked.busy, sweep.ends, sweep.busy)
		}
		if len(marked.starts) != len(sweep.starts) {
			t.Fatalf("graph %d: marked drain started %d kernels, sweep %d", seed, len(marked.starts), len(sweep.starts))
		}
		for i := range sweep.starts {
			a, b := marked.starts[i], sweep.starts[i]
			if a.seq != b.seq || a.stream != b.stream || a.grant != b.grant ||
				math.Float64bits(a.at) != math.Float64bits(b.at) || math.Float64bits(a.dur) != math.Float64bits(b.dur) {
				t.Fatalf("graph %d: kernel %d started as %+v under the marked drain, %+v under the sweep", seed, i, a, b)
			}
		}
		if !sameBits(direct.ends, sweep.ends) || !sameBits(direct.busy, sweep.busy) {
			t.Fatalf("graph %d: Run ends %v busy %v, sweep ends %v busy %v",
				seed, direct.ends, direct.busy, sweep.ends, sweep.busy)
		}
	}
	t.Logf("%d graphs, %d kernels", graphs, kernels)
}
