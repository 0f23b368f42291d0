package memplan

import (
	"sync"
	"testing"
	"testing/quick"

	"crossbow/internal/tensor"
)

func chain(sizes ...int64) *Graph {
	g := &Graph{}
	for i, s := range sizes {
		var in []int
		if i > 0 {
			in = []int{i - 1}
		}
		g.Ops = append(g.Ops, Op{Name: "op", OutBytes: s, Inputs: in})
	}
	return g
}

func TestPlanChainUsesTwoBuffers(t *testing.T) {
	// In a pure chain, op i+1 reads op i; outputs i−1 and earlier are
	// dead, so two alternating buffers suffice from op 2 onwards.
	g := chain(100, 100, 100, 100, 100, 100)
	p, err := PlanOffline(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Buffers) > 3 {
		t.Fatalf("chain plan used %d buffers, want ≤ 3", len(p.Buffers))
	}
	if err := CheckNoLiveOverlap(g, p); err != nil {
		t.Fatal(err)
	}
}

func TestPlanRespectsFanOut(t *testing.T) {
	// Op 0 feeds ops 1, 2 and 3: its buffer must not be reused before op 3.
	g := &Graph{Ops: []Op{
		{Name: "a", OutBytes: 10},
		{Name: "b", OutBytes: 10, Inputs: []int{0}},
		{Name: "c", OutBytes: 10, Inputs: []int{0, 1}},
		{Name: "d", OutBytes: 10, Inputs: []int{0, 2}},
	}}
	p, err := PlanOffline(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckNoLiveOverlap(g, p); err != nil {
		t.Fatal(err)
	}
}

// (No buffer grows any more — the 500-byte op is placed first — but a large
// op in mid-chain must still plan validly and below the naive layout.)
func TestPlanGrowsBufferWhenNeeded(t *testing.T) {
	g := chain(10, 10, 500, 10)
	p, err := PlanOffline(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckNoLiveOverlap(g, p); err != nil {
		t.Fatal(err)
	}
	if p.PlannedBytes() >= g.TotalOutBytes() {
		t.Fatalf("plan %d bytes, naive %d: no saving", p.PlannedBytes(), g.TotalOutBytes())
	}
}

func TestPlanKeepsScratchBufferForScratch(t *testing.T) {
	// A fused residual block in miniature: 900-byte lowering scratch before
	// every 100-byte conv output, a shortcut (op 1) held across the block and
	// a join (op 6) produced while the scratch buffer is the only free one.
	// Visiting in execution order parks the join there and the next conv
	// needs a second 900-byte buffer (1 900 bytes); largest first, every
	// scratch shares one buffer and the plan is one activation above the
	// 1 100-byte peak.
	g := &Graph{Ops: []Op{
		{Name: "col", OutBytes: 900},
		{Name: "stem", OutBytes: 100, Inputs: []int{0}},
		{Name: "col", OutBytes: 900, Inputs: []int{1}},
		{Name: "a", OutBytes: 100, Inputs: []int{2}},
		{Name: "col", OutBytes: 900, Inputs: []int{3}},
		{Name: "b", OutBytes: 100, Inputs: []int{4}},
		{Name: "join", OutBytes: 100, Inputs: []int{1, 5}},
		{Name: "col", OutBytes: 900, Inputs: []int{6}},
	}}
	p, err := PlanOffline(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckNoLiveOverlap(g, p); err != nil {
		t.Fatal(err)
	}
	if got := p.PlannedBytes(); got != 1200 {
		t.Fatalf("plan %d bytes over buffers %v, want 1200", got, p.Buffers)
	}
}

func TestValidateRejectsForwardEdges(t *testing.T) {
	g := &Graph{Ops: []Op{{Name: "a", OutBytes: 1, Inputs: []int{1}}, {Name: "b", OutBytes: 1}}}
	if err := g.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := PlanOffline(g); err == nil {
		t.Fatal("expected plan error")
	}
}

// Property: random DAGs plan without overlapping lifetimes and never exceed
// the naive allocation.
func TestPlanOfflineProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		r := tensor.NewRNG(seed)
		g := &Graph{}
		for i := 0; i < n; i++ {
			op := Op{Name: "op", OutBytes: int64(r.Intn(1000) + 1)}
			if i > 0 {
				// 1-2 random inputs from earlier ops.
				op.Inputs = []int{r.Intn(i)}
				if r.Float64() < 0.4 {
					op.Inputs = append(op.Inputs, r.Intn(i))
				}
			}
			g.Ops = append(g.Ops, op)
		}
		p, err := PlanOffline(g)
		if err != nil {
			return false
		}
		if CheckNoLiveOverlap(g, p) != nil {
			return false
		}
		return p.PlannedBytes() <= g.TotalOutBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingGraphChainShape(t *testing.T) {
	// The spec-level lowering keeps its dependency structure: forward op i
	// reads i−1, backward op of layer i reads the incoming gradient and the
	// layer's forward input. (The full-scale benchmark-model savings tests
	// live in internal/autotune, which owns the spec adapter.)
	ops := []SpecOp{{Kind: "conv", OutElems: 100}, {Kind: "relu", OutElems: 100}, {Kind: "dense", OutElems: 10}}
	g := TrainingGraph(ops, 64, 8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Ops) != 6 {
		t.Fatalf("graph has %d ops, want 6", len(g.Ops))
	}
	p, err := PlanOffline(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckNoLiveOverlap(g, p); err != nil {
		t.Fatal(err)
	}
	if p.PlannedBytes() >= g.TotalOutBytes() {
		t.Fatalf("plan %d bytes, naive %d: backward reuse missing", p.PlannedBytes(), g.TotalOutBytes())
	}
}

func TestOnlineAcquireReuse(t *testing.T) {
	p := NewOnlinePlanner()
	b1 := p.Acquire("conv1", 100, 1)
	p.Release(b1)
	b2 := p.Acquire("conv1", 80, 1)
	if b2 != b1 {
		t.Fatal("expected pooled buffer reuse")
	}
	bytes, allocs, reuses := p.Stats()
	if allocs != 1 || reuses != 1 || bytes != 100 {
		t.Fatalf("stats = %d bytes, %d allocs, %d reuses", bytes, allocs, reuses)
	}
}

func TestOnlineGrowsPooledBuffer(t *testing.T) {
	p := NewOnlinePlanner()
	b1 := p.Acquire("op", 100, 1)
	p.Release(b1)
	b2 := p.Acquire("op", 150, 1)
	if b2.Size != 150 {
		t.Fatalf("buffer size = %d, want grown to 150", b2.Size)
	}
	bytes, _, _ := p.Stats()
	if bytes != 150 {
		t.Fatalf("allocated = %d, want 150", bytes)
	}
}

func TestOnlineRefCounting(t *testing.T) {
	p := NewOnlinePlanner()
	b := p.Acquire("op", 10, 2)
	p.Release(b)
	// One reference remains; buffer must not be reusable yet.
	b2 := p.Acquire("op", 10, 1)
	if b2 == b {
		t.Fatal("buffer reused while still referenced")
	}
	p.Release(b)
	b3 := p.Acquire("op", 10, 1)
	if b3 != b {
		t.Fatal("buffer not reused after last release")
	}
}

func TestOnlineReleasePanicsWhenOverReleased(t *testing.T) {
	p := NewOnlinePlanner()
	b := p.Acquire("op", 10, 1)
	p.Release(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Release(b)
}

func TestOnlineSharedAcrossLearnersConcurrently(t *testing.T) {
	// Several learner goroutines acquiring/releasing the same operator
	// pools: with staggered execution the planner should allocate far
	// fewer buffers than learners×ops.
	p := NewOnlinePlanner()
	const learners = 8
	const iters = 200
	var wg sync.WaitGroup
	for l := 0; l < learners; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := p.Acquire("conv", 1000, 1)
				b := p.Acquire("bn", 500, 1)
				p.Release(a)
				p.Release(b)
			}
		}()
	}
	wg.Wait()
	bytes, allocs, reuses := p.Stats()
	if allocs > 2*learners {
		t.Fatalf("allocs = %d, want ≤ %d", allocs, 2*learners)
	}
	if reuses == 0 {
		t.Fatal("expected reuse")
	}
	if bytes > int64(2*learners)*1500 {
		t.Fatalf("allocated %d bytes, too much", bytes)
	}
}
