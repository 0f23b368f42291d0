package data

import (
	"runtime"
	"testing"
	"time"
)

func pipelineDataset(n int) *Dataset {
	tr, _ := Synthesize(SynthConfig{
		Shape: []int{2, 4, 4}, Classes: 4, Train: n, Test: 8, Seed: 9,
	})
	return tr
}

// waitGoroutines polls until the goroutine count drops back to at most want,
// giving exiting goroutines time to be reaped.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d alive, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPipelineCloseNoGoroutineLeak proves Close reaps the dispatcher and
// every worker in each of the states they can be blocked in: filling, blocked
// sending a full slot, and blocked waiting for a free slot. This guards the
// runtime's hot path, which opens and closes a pipeline per training run.
func TestPipelineCloseNoGoroutineLeak(t *testing.T) {
	ds := pipelineDataset(64)
	before := runtime.NumGoroutine()

	for trial := 0; trial < 20; trial++ {
		p := NewPipeline(ds, PipelineConfig{Batch: 4, Slots: 3, Workers: 3, Seed: uint64(trial + 1)})
		// Vary the consumption point so Close lands with workers in
		// different blocked states (including holding acquired slots that
		// are never released).
		for i := 0; i < trial%4; i++ {
			if s, ok := p.Acquire(); ok && trial%2 == 0 {
				p.Release(s)
			} else {
				_ = s
			}
		}
		p.Close()
	}
	waitGoroutines(t, before)

	// Acquire after Close reports shutdown rather than blocking.
	p := NewPipeline(ds, PipelineConfig{Batch: 4, Slots: 2, Workers: 2, Seed: 1})
	p.Close()
	if s, ok := p.Acquire(); ok {
		t.Fatalf("Acquire after Close returned a slot: %+v", s)
	}
	waitGoroutines(t, before)
}

// TestPipelineHeldSlotNotReused pins the circular buffer's ownership
// contract: while a consumer holds an acquired slot, the pre-processors must
// not overwrite it, even when every other slot cycles many times. The
// runtime's learners depend on this — a staged batch must stay stable for
// the whole forward/backward pass.
func TestPipelineHeldSlotNotReused(t *testing.T) {
	ds := pipelineDataset(64)
	p := NewPipeline(ds, PipelineConfig{Batch: 4, Slots: 3, Workers: 2, Seed: 7})
	defer p.Close()

	held, ok := p.Acquire()
	if !ok {
		t.Fatal("Acquire failed")
	}
	heldSeq := held.Seq
	snapshot := append([]float32(nil), held.X.Data()...)
	heldLabels := append([]int(nil), held.Labels...)

	// Cycle the remaining slots through many reuses while the held slot
	// stays checked out.
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		s, ok := p.Acquire()
		if !ok {
			t.Fatal("Acquire failed mid-cycle")
		}
		if s == held {
			t.Fatalf("pipeline handed out the held slot again (seq %d)", s.Seq)
		}
		seen[s.idx] = true
		p.Release(s)
	}
	if len(seen) == 0 {
		t.Fatal("no other slots cycled")
	}

	if held.Seq != heldSeq {
		t.Fatalf("held slot reseq'd: %d -> %d", heldSeq, held.Seq)
	}
	for i, v := range held.X.Data() {
		if v != snapshot[i] {
			t.Fatalf("held slot data overwritten at %d: %v -> %v", i, snapshot[i], v)
		}
	}
	for i, l := range held.Labels {
		if l != heldLabels[i] {
			t.Fatalf("held slot label overwritten at %d: %d -> %d", i, heldLabels[i], l)
		}
	}
	p.Release(held)
}

// TestPipelineSeqContiguous: staged slots carry the batcher's draw-sequence
// positions; draining the pipeline yields no sequence number twice and none
// far out of order, which is what the runtime's reorder buffer and the FCFS
// assignment log both rely on.
func TestPipelineSeqContiguous(t *testing.T) {
	const slots = 4
	ds := pipelineDataset(64)
	p := NewPipeline(ds, PipelineConfig{Batch: 4, Slots: slots, Workers: 3, Seed: 3})
	defer p.Close()

	const n = 100
	got := map[int]bool{}
	highest := -1
	for i := 0; i < n; i++ {
		s, ok := p.Acquire()
		if !ok {
			t.Fatal("Acquire failed")
		}
		if got[s.Seq] {
			t.Fatalf("sequence %d delivered twice", s.Seq)
		}
		got[s.Seq] = true
		if s.Seq > highest {
			highest = s.Seq
		}
		p.Release(s)
	}
	// An undelivered sequence holds a buffer slot until it is filled (the
	// atomic claim pairing), and a pre-empted worker can hold its one slot
	// while the others cycle arbitrarily far ahead. So no fixed prefix is
	// guaranteed delivered, but at most Slots-1 sequences below the highest
	// delivered one can still be missing.
	var missing []int
	for seq := 0; seq < highest; seq++ {
		if !got[seq] {
			missing = append(missing, seq)
		}
	}
	if len(missing) > slots-1 {
		t.Fatalf("%d sequences below the highest delivered (%d) are missing after %d acquires, want <= %d: %v",
			len(missing), highest, n, slots-1, missing)
	}
}
