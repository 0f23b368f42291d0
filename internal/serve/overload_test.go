package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// flood hammers the engine with `clients` goroutines sending `per`
// requests each, and returns the served / shed counts. Any error other
// than ErrOverloaded fails the test.
//
// The engines under test use a deliberately expensive batch (a large
// MaxBatch on a deep model — partial batches compute every row, so each
// batch costs the same ~tens of ms regardless of occupancy). That makes
// the overload real on any machine: the pipeline's capacity is a fixed
// request count, its drain time is scheduler-visible, and a flood of more
// clients than capacity MUST overflow the queue.
func flood(t *testing.T, e *Engine, clients, per int) (served, shed int64) {
	t.Helper()
	sample := randomSample(e.SampleVol(), 42)
	var okCount, shedCount atomic.Int64
	var fail atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, err := e.Predict(sample)
				switch {
				case err == nil:
					okCount.Add(1)
				case errors.Is(err, ErrOverloaded):
					shedCount.Add(1)
				default:
					fail.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := fail.Load(); err != nil {
		t.Fatalf("Predict failed with a non-shed error: %v", err)
	}
	return okCount.Load(), shedCount.Load()
}

// TestShedOnFullKeepsLatencyBounded offers far more concurrent load than
// the engine's bounded pipeline can hold: the pipeline absorbs at most
// QueueDepth + one gathering batch + one executing batch ≈ 136
// requests, and 256 clients stay saturating it for many batch
// times. With ShedOnFull the excess must be refused immediately
// (ErrOverloaded, counted in Stats.Shed) instead of queueing, so the
// requests that ARE admitted keep a drain-time-bounded latency — the
// graceful-degradation contract.
func TestShedOnFullKeepsLatencyBounded(t *testing.T) {
	e, _ := newTestEngine(t, Config{
		Model: nn.VGG16, MaxBatch: 64, QueueDepth: 8, ShedOnFull: true,
	})
	defer e.Close()

	served, shed := flood(t, e, 256, 2)
	if served == 0 {
		t.Fatal("overloaded engine served nothing")
	}
	if shed == 0 {
		t.Fatal("sustained overload beyond pipeline capacity shed nothing — queue must have been unbounded")
	}
	s := e.Stats()
	if s.Shed != shed {
		t.Fatalf("Stats.Shed = %d, clients counted %d", s.Shed, shed)
	}
	if s.Requests != served {
		t.Fatalf("Stats.Requests = %d, clients counted %d served", s.Requests, served)
	}
	// An admitted request waits at most the bounded pipeline's drain
	// (a few batch times), not the offered load's. Two seconds is far
	// above the honest bound — this guards against regressions back to
	// unbounded queueing, where p99 would be the whole flood's runtime.
	if s.P99Ms > 2000 {
		t.Fatalf("served p99 = %.1fms under shedding, want drain-bounded", s.P99Ms)
	}
}

// TestAdmitDeadlineShedsLateRequests floods an engine whose answer budget
// covers only ~2 queued batches while the flood stacks up many more.
// Requests that would miss the budget must be refused — at admission once
// the service-time estimate exists, or at gathering when they aged out
// while queued — and every request the engine does answer must have been
// gathered within its budget.
func TestAdmitDeadlineShedsLateRequests(t *testing.T) {
	// Pin the kernels to two workers for the duration of the test. At full
	// parallelism a batch's ParallelFor occupies every P, so the flood's
	// client goroutines are starved off the scheduler and arrivals trickle
	// in at the batch gap rate — the backlog this test is about never
	// forms, and each kernel speedup widens that escape hatch. With the
	// kernels capped, clients run concurrently with compute and the queue
	// genuinely stacks many batch-times against the 2-batch budget.
	prevPar := tensor.WorkerBudget()
	tensor.SetWorkerBudget(2)
	t.Cleanup(func() { tensor.SetWorkerBudget(prevPar) })

	// Calibrate the budget to this machine: measure one batch's service
	// time on a throwaway engine, then grant the real engine ~2 batch
	// times. The queue is deep enough to stack dozens of batches, so
	// without deadline admission nothing would ever be refused.
	probe, w := newTestEngine(t, Config{Model: nn.VGG16, MaxBatch: 64})
	// Several sequential probes, not one: the first batch pays lazy bind
	// and page-fault costs, and a budget calibrated to that cold outlier
	// alone is loose enough to let a whole backlog drain inside it.
	for i := 0; i < 5; i++ {
		if _, err := probe.Predict(randomSample(probe.SampleVol(), 1)); err != nil {
			t.Fatalf("calibration Predict: %v", err)
		}
	}
	batchTime := probe.service.Mean()
	probe.Close()

	e, err := New(Config{
		Model: nn.VGG16, Params: w, MaxBatch: 64, QueueDepth: 1024,
		AdmitDeadline: 2 * batchTime,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()

	served, shed := flood(t, e, 512, 2)
	if served == 0 {
		t.Fatal("deadline admission starved the engine completely")
	}
	if shed == 0 {
		t.Fatal("a backlog of many batch-times against a 2-batch budget shed nothing")
	}
	s := e.Stats()
	if s.Shed != shed {
		t.Fatalf("Stats.Shed = %d, clients counted %d", s.Shed, shed)
	}
	// Latency is recorded only for answered requests; each of those passed
	// the gather-time age check, so its queue wait sat within the budget
	// and served p99 ≈ budget + a few batch times — not the backlog's full
	// drain. The slack absorbs single-core scheduling noise.
	bound := float64(2*batchTime+4*e.service.Max())/1e6 + 250
	if s.P99Ms > bound {
		t.Fatalf("served p99 = %.1fms, want <= %.1fms (budget + slack)", s.P99Ms, bound)
	}
}

// TestLapsedRequestAccounting unit-tests the gather-time age check
// directly: a request older than the budget is answered ErrOverloaded and
// counted shed, a fresh one passes untouched, and with no budget the check
// is inert.
func TestLapsedRequestAccounting(t *testing.T) {
	e, _ := newTestEngine(t, Config{Model: nn.LeNet, AdmitDeadline: 10 * time.Millisecond})
	defer e.Close()

	old := e.getReq()
	old.enq = time.Now().Add(-20 * time.Millisecond)
	if !e.lapsed(old) {
		t.Fatal("request 2x past its budget not lapsed")
	}
	if p := <-old.resp; p != (Prediction{}) || !errors.Is(old.err, ErrOverloaded) {
		t.Fatalf("lapsed answer = %+v err %v, want zero prediction + ErrOverloaded", p, old.err)
	}
	old.err = nil
	e.putReq(old)

	fresh := e.getReq()
	fresh.enq = time.Now()
	if e.lapsed(fresh) {
		t.Fatal("fresh request lapsed")
	}
	e.putReq(fresh)
	if got := e.Stats().Shed; got != 1 {
		t.Fatalf("Stats.Shed = %d after one lapse, want 1", got)
	}
}
