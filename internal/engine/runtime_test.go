package engine

import (
	"testing"

	"crossbow/internal/data"
)

func runtimeDataset(t *testing.T) *data.Dataset {
	t.Helper()
	tr, _ := data.Synthesize(data.SynthConfig{
		Shape: []int{2, 4, 4}, Classes: 4, Train: 64, Test: 8, Seed: 5,
	})
	return tr
}

// TestRuntimeLockstepOrdering: the oracle mode binds batch i·k+j to learner
// j in draw order, joins every iteration, and steps once per iteration.
func TestRuntimeLockstepOrdering(t *testing.T) {
	ds := runtimeDataset(t)
	p := data.NewPipeline(ds, data.PipelineConfig{Batch: 4, Slots: 6, Workers: 2, Seed: 11})
	defer p.Close()

	const k, iters, tau = 3, 10, 2
	steps := 0
	rt := NewRuntime(RuntimeConfig{
		Learners: k, Tau: tau, Mode: ModeLockstep, Pipeline: p,
		Task: func(j int, s *data.Slot) float64 { return float64(s.Seq) },
		Step: func() { steps++ },
	})
	defer rt.Close()

	rt.RunEpoch(iters)
	if steps != iters {
		t.Fatalf("Step called %d times, want %d", steps, iters)
	}
	log := rt.SeqLog()
	for j := 0; j < k; j++ {
		if len(log[j]) != iters {
			t.Fatalf("learner %d consumed %d batches, want %d", j, len(log[j]), iters)
		}
		for it, seq := range log[j] {
			if want := it*k + j; seq != want {
				t.Fatalf("learner %d iteration %d got seq %d, want %d", j, it, seq, want)
			}
		}
	}
	// Loss fold order is learner-index order within each iteration: the sum
	// of seq values of all consumed batches.
	sum, n := rt.TakeEpochLoss()
	wantSum := float64(iters * k * (iters*k - 1) / 2)
	if sum != wantSum || n != iters*k {
		t.Fatalf("epoch loss (%v, %d), want (%v, %d)", sum, n, wantSum, iters*k)
	}
	st := rt.Stats()
	if st.Rounds != iters/tau {
		t.Fatalf("rounds %d, want %d", st.Rounds, iters/tau)
	}
}

// lockstepProbe is a driver that checks, from inside the closures, what the
// lockstep round promises them. Its fields are plain variables: only the
// runtime's barriers order the learners' writes against the serial
// sections' reads, so under -race the test checks those edges too.
type lockstepProbe struct {
	t      *testing.T
	k, tau int
	busy   []bool  // busy[j]: learner j is inside its task
	seqs   [][]int // seqs[j]: the batches learner j's tasks saw
	steps  int     // steps opened: BeginStep calls, or whole Step calls
	shards []int   // shards[j]: StepShard(j) calls
	rounds []int   // Publish arguments
}

func newLockstepProbe(t *testing.T, k, tau int) *lockstepProbe {
	return &lockstepProbe{t: t, k: k, tau: tau, busy: make([]bool, k), seqs: make([][]int, k), shards: make([]int, k)}
}

// stopped fails unless no task is in flight and every shard of every opened
// step has returned.
func (p *lockstepProbe) stopped(where string, sharded bool) {
	for j := 0; j < p.k; j++ {
		if p.busy[j] {
			p.t.Errorf("%s with learner %d inside its task", where, j)
		}
		if sharded && p.shards[j] != p.steps {
			p.t.Errorf("%s with learner %d at shard %d of step %d", where, j, p.shards[j], p.steps)
		}
	}
}

func (p *lockstepProbe) config(pipe *data.Pipeline, sharded bool) RuntimeConfig {
	rc := RuntimeConfig{
		Learners: p.k, Tau: p.tau, Mode: ModeLockstep, Pipeline: pipe,
		Task: func(j int, s *data.Slot) float64 {
			p.busy[j] = true
			p.seqs[j] = append(p.seqs[j], s.Seq)
			p.busy[j] = false
			return float64(s.Seq)
		},
		Publish: func(round int) {
			p.stopped("Publish", sharded)
			if p.steps%p.tau != 0 || round != p.steps/p.tau {
				p.t.Errorf("Publish(%d) after %d steps at τ = %d", round, p.steps, p.tau)
			}
			p.rounds = append(p.rounds, round)
		},
	}
	open := func() {
		p.stopped("the step's serial section", sharded)
		p.steps++
	}
	if !sharded {
		rc.Step = open
		return rc
	}
	rc.BeginStep = open
	rc.StepShard = func(j int) {
		if p.shards[j]++; p.shards[j] != p.steps {
			p.t.Errorf("StepShard(%d) call %d with %d steps opened", j, p.shards[j], p.steps)
		}
	}
	return rc
}

// TestLockstepRound runs the learner-driven round with a whole Step and
// with a sharded one: tasks see the staged batches in draw order, a step is
// opened only with every learner stopped and every shard of the last one
// done, Publish(round) comes exactly on τ boundaries in that same state, and
// after an epoch that ends mid-round Handoff carries an intact reorder
// buffer to a successor of a different size.
func TestLockstepRound(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		ds := runtimeDataset(t)
		pipe := data.NewPipeline(ds, data.PipelineConfig{Batch: 4, Slots: 8, Workers: 3, Seed: 11})
		const k, tau, first, second = 3, 2, 5, 4
		p := newLockstepProbe(t, k, tau)
		rt := NewRuntime(p.config(pipe, sharded))
		rt.RunEpoch(first) // 5 iterations at τ = 2: the epoch ends mid-round
		if got, want := p.steps, first; got != want {
			t.Fatalf("sharded=%v: %d steps after %d iterations", sharded, got, want)
		}
		rt.RunEpoch(second)
		for j := 0; j < k; j++ {
			for it, seq := range p.seqs[j] {
				if want := it*k + j; seq != want {
					t.Fatalf("sharded=%v: learner %d iteration %d ran batch %d, want %d", sharded, j, it, seq, want)
				}
			}
			if len(p.seqs[j]) != first+second {
				t.Fatalf("sharded=%v: learner %d ran %d tasks, want %d", sharded, j, len(p.seqs[j]), first+second)
			}
		}
		if want := (first + second) / tau; len(p.rounds) != want || rt.Stats().Rounds != want {
			t.Fatalf("sharded=%v: published rounds %v, stats %d, want 1…%d", sharded, p.rounds, rt.Stats().Rounds, want)
		}
		sum, n := rt.TakeEpochLoss()
		if total := (first + second) * k; n != total || sum != float64(total*(total-1)/2) {
			t.Fatalf("sharded=%v: epoch loss (%v, %d)", sharded, sum, n)
		}

		// Hand the pipeline to a two-learner successor, as a resize does.
		firstSeq, held := rt.Handoff()
		rt.Close()
		if firstSeq != (first+second)*k {
			t.Fatalf("sharded=%v: Handoff at %d, want %d", sharded, firstSeq, (first+second)*k)
		}
		for seq, s := range held {
			if s.Seq != seq || seq < firstSeq {
				t.Fatalf("sharded=%v: held[%d] is batch %d with the buffer at %d", sharded, seq, s.Seq, firstSeq)
			}
		}
		p2 := newLockstepProbe(t, 2, 1)
		rc := p2.config(pipe, sharded)
		rc.FirstSeq, rc.Held = firstSeq, held
		rt2 := NewRuntime(rc)
		rt2.RunEpoch(3)
		for j := 0; j < 2; j++ {
			for it, seq := range p2.seqs[j] {
				if want := firstSeq + it*2 + j; seq != want {
					t.Fatalf("sharded=%v: successor learner %d iteration %d ran batch %d, want %d", sharded, j, it, seq, want)
				}
			}
		}
		rt2.Close()
		pipe.Close()
	}
}

// TestLockstepIterationAllocs: a steady-state lockstep iteration allocates
// nothing in the engine — the epoch, shard and serial-section closures are
// all built by NewRuntime. The assignment log is given its capacity up
// front (it grows by amortised doubling otherwise), and the measured epochs
// follow one that has warmed the pipeline.
func TestLockstepIterationAllocs(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		ds := runtimeDataset(t)
		const k, iters, runs, slots = 2, 50, 5, 4
		pipe := data.NewPipeline(ds, data.PipelineConfig{Batch: 4, Slots: slots, Workers: 1, Seed: 11})
		rc := RuntimeConfig{
			Learners: k, Mode: ModeLockstep, Pipeline: pipe,
			Task:    func(j int, s *data.Slot) float64 { return 1 },
			Publish: func(round int) {},
		}
		if sharded {
			rc.BeginStep, rc.StepShard = func() {}, func(j int) {}
		} else {
			rc.Step = func() {}
		}
		rt := NewRuntime(rc)
		for j := range rt.seqLog {
			rt.seqLog[j] = make([]int, 0, (runs+2)*iters)
		}
		rt.RunEpoch(iters)
		// What is counted here is the pipeline's dispatcher, which
		// allocates one index set per batch and runs up to a buffer of slots
		// ahead: the bound is what as many bare Acquire/Release cycles cost,
		// plus that lead. An allocation per iteration would add iters.
		perEpoch := testing.AllocsPerRun(runs, func() { rt.RunEpoch(iters) })
		bare := testing.AllocsPerRun(runs, func() {
			for i := 0; i < iters*k; i++ {
				s, _ := pipe.Acquire()
				pipe.Release(s)
			}
		})
		if perEpoch > bare+slots {
			t.Errorf("sharded=%v: %v allocations per %d-iteration epoch, the pipeline alone makes %v", sharded, perEpoch, iters, bare)
		}
		rt.Close()
		pipe.Close()
	}
}

// TestRuntimeFCFSRounds: barrier-free mode consumes every staged batch
// exactly once, gives every learner the same iteration count, folds every
// complete round exactly once with all contributions in, and bounds
// run-ahead by 2τ.
func TestRuntimeFCFSRounds(t *testing.T) {
	ds := runtimeDataset(t)
	p := data.NewPipeline(ds, data.PipelineConfig{Batch: 4, Slots: 8, Workers: 2, Seed: 11})
	defer p.Close()

	const k, iters, tau = 4, 25, 3
	contribs := make([]int, k)
	applies := 0
	rt := NewRuntime(RuntimeConfig{
		Learners: k, Tau: tau, Mode: ModeFCFS, Pipeline: p,
		Task:      func(j int, s *data.Slot) float64 { return 1 },
		LocalStep: func(j int) {},
		Contribute: func(j int) {
			contribs[j]++ // only safe because Apply gates rounds
		},
		Apply: func() {
			applies++
			for j := 1; j < k; j++ {
				if contribs[j] != contribs[0] {
					t.Errorf("apply %d: contribution counts diverge: %v", applies, contribs)
				}
				if contribs[0] != applies {
					t.Errorf("apply %d ran with %d contributions", applies, contribs[0])
				}
			}
		},
	})
	defer rt.Close()

	// Two "epochs" whose boundary falls mid-round (25 % 3 != 0): rounds
	// must carry across the join.
	rt.RunEpoch(iters)
	if sum, n := rt.TakeEpochLoss(); sum != float64(k*iters) || n != k*iters {
		t.Fatalf("first epoch loss (%v, %d), want (%d, %d)", sum, n, k*iters, k*iters)
	}
	rt.RunEpoch(iters)

	totalIters := 2 * iters
	wantRounds := totalIters / tau
	st := rt.Stats()
	if applies != wantRounds || st.Rounds != wantRounds {
		t.Fatalf("applies %d stats.Rounds %d, want %d", applies, st.Rounds, wantRounds)
	}
	if st.MaxLeadIters > 2*tau {
		t.Fatalf("run-ahead %d exceeds 2τ=%d", st.MaxLeadIters, 2*tau)
	}
	seen := map[int]int{}
	log := rt.SeqLog()
	for j := 0; j < k; j++ {
		if len(log[j]) != totalIters {
			t.Fatalf("learner %d consumed %d batches, want %d", j, len(log[j]), totalIters)
		}
		for _, seq := range log[j] {
			seen[seq]++
		}
	}
	for seq, c := range seen {
		if c != 1 {
			t.Fatalf("seq %d consumed %d times", seq, c)
		}
	}
	if len(seen) != k*totalIters {
		t.Fatalf("consumed %d distinct batches, want %d", len(seen), k*totalIters)
	}
	if sum, n := rt.TakeEpochLoss(); sum != float64(k*iters) || n != k*iters {
		t.Fatalf("second epoch loss (%v, %d), want (%d, %d)", sum, n, k*iters, k*iters)
	}
}

// TestRuntimeFCFSOrderedApply: the central model update is applied by
// exactly one goroutine per round while no contribution is concurrent, so a
// driver folding corrections in learner-index order gets a result that
// depends only on the assignment log. The test shuttles a shared counter
// through Contribute/Apply in a way the race detector would flag if the
// runtime's critical sections overlapped.
func TestRuntimeFCFSOrderedApply(t *testing.T) {
	ds := runtimeDataset(t)
	p := data.NewPipeline(ds, data.PipelineConfig{Batch: 4, Slots: 8, Workers: 3, Seed: 3})
	defer p.Close()

	const k, iters, tau = 3, 30, 1
	// z is deliberately unsynchronised: the runtime's contract (stable
	// central model during Contribute, exclusive Apply) is what keeps the
	// race detector quiet.
	z := 0
	pending := make([]int, k)
	rt := NewRuntime(RuntimeConfig{
		Learners: k, Tau: tau, Mode: ModeFCFS, Pipeline: p,
		Task:       func(j int, s *data.Slot) float64 { return 0 },
		LocalStep:  func(j int) {},
		Contribute: func(j int) { pending[j] = z + 1 },
		Apply: func() {
			for j := 0; j < k; j++ {
				z += pending[j] - z // index-ordered fold
			}
		},
	})
	defer rt.Close()
	rt.RunEpoch(iters)
	if z != iters {
		t.Fatalf("z = %d after %d rounds, want %d", z, iters, iters)
	}
}
