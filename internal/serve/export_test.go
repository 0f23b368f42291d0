package serve

import (
	"runtime"
	"testing"
)

// holdGather takes the gather token from a one-replica engine with no
// request in flight, so no batch forms until release hands it back: a test
// can queue exactly the requests it wants (awaitQueued) and have the
// replica take them as one batch, with no timing involved. The idle replica
// holds the token while it blocks for a first request, so holdGather parks
// it (the autoscaler's mechanism) and, while the token is out, runs a
// throwaway request to make the replica hand it on.
func holdGather(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	if e.cfg.Replicas != 1 || e.cfg.AutoScale > 0 {
		t.Fatalf("holdGather needs exactly one replica, engine has %d (autoscale %d)", e.cfg.Replicas, e.cfg.AutoScale)
	}
	e.desiredReplicas.Store(0)
	for {
		select {
		case <-e.token:
			e.desiredReplicas.Store(1)
			return func() { e.token <- struct{}{} }
		default:
		}
		if _, err := e.Predict(make([]float32, e.SampleVol())); err != nil {
			t.Fatalf("holdGather: throwaway Predict: %v", err)
		}
	}
}

// awaitQueued waits until n requests sit in the engine's queue.
func awaitQueued(e *Engine, n int) {
	for len(e.queue) < n {
		runtime.Gosched()
	}
}
