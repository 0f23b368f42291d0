package memplan

import (
	"cmp"
	"fmt"
	"slices"
)

// Op is one dataflow operator in a learning task's execution order. Inputs
// lists the indices of the ops whose outputs this op consumes; an op's
// output buffer can be recycled once all its consumers have executed.
type Op struct {
	Name     string
	OutBytes int64
	Inputs   []int
}

// Graph is a learning task's operator graph in execution order: every
// input index must be smaller than the consuming op's index.
type Graph struct {
	Ops []Op
}

// Validate checks topological ordering of the graph.
func (g *Graph) Validate() error {
	for i, op := range g.Ops {
		for _, in := range op.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("memplan: op %d (%s) has invalid input %d", i, op.Name, in)
			}
		}
	}
	return nil
}

// TotalOutBytes returns the naive allocation: one buffer per operator.
func (g *Graph) TotalOutBytes() int64 {
	var n int64
	for _, op := range g.Ops {
		n += op.OutBytes
	}
	return n
}

// Plan is an offline buffer assignment: Assign[i] is the buffer index that
// holds op i's output, and Buffers[b] is buffer b's byte size.
type Plan struct {
	Assign  []int
	Buffers []int64
}

// PlannedBytes returns the planned allocation size.
func (p *Plan) PlannedBytes() int64 {
	var n int64
	for _, b := range p.Buffers {
		n += b
	}
	return n
}

// Savings returns the fraction of the naive allocation the plan avoids.
func (p *Plan) Savings(g *Graph) float64 {
	naive := g.TotalOutBytes()
	if naive == 0 {
		return 0
	}
	return 1 - float64(p.PlannedBytes())/float64(naive)
}

// lastUses returns, per op, the step of its output's last consumer; an
// output nobody reads (the final op's) is held to the end (len(g.Ops)).
func lastUses(g *Graph) []int {
	last := make([]int, len(g.Ops))
	for i := range last {
		last[i] = len(g.Ops)
	}
	for i, op := range g.Ops {
		for _, in := range op.Inputs {
			last[in] = i
		}
	}
	return last
}

// liveTogether reports whether ops a and b hold their outputs at the same
// time: the later one is produced no later than the earlier one's last
// consumer runs (which reads its input while the new output is written).
func liveTogether(a, b int, lastUse []int) bool {
	if a > b {
		a, b = b, a
	}
	return b <= lastUse[a]
}

// PlanOffline computes the buffer plan of §4.5. Liveness is the paper's
// reference count: an output holds its buffer from the step that produces it
// until its last consumer has executed, and two outputs share a buffer only
// if those spans are disjoint. The paper visits the ops in execution order
// and takes any buffer whose count has reached zero; that order is not
// monotone in the graph once lowering scratch is several times an
// activation — a small output parks in the only free buffer, the scratch-
// sized one, just before the next conv needs it, a second scratch-sized
// buffer appears, and a walk that declares fewer buffers can plan larger.
// So ops are placed largest first (ties in execution order), each into the
// first buffer with no tenant live beside it; a buffer's first tenant is its
// largest, so none ever grows.
func PlanOffline(g *Graph) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	lastUse := lastUses(g)
	order := make([]int, len(g.Ops))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(g.Ops[b].OutBytes, g.Ops[a].OutBytes)
	})
	plan := &Plan{Assign: make([]int, len(g.Ops))}
	var tenants [][]int // ops placed in each buffer
	for _, i := range order {
		b := 0
		for b < len(tenants) && slices.ContainsFunc(tenants[b], func(t int) bool {
			return liveTogether(i, t, lastUse)
		}) {
			b++
		}
		if b == len(tenants) {
			tenants = append(tenants, nil)
			plan.Buffers = append(plan.Buffers, g.Ops[i].OutBytes)
		}
		tenants[b] = append(tenants[b], i)
		plan.Assign[i] = b
	}
	return plan, nil
}

// CheckNoLiveOverlap verifies the defining safety invariant of a plan: two
// ops may share a buffer only if their output lifetimes do not overlap. Op
// i's output is live from step i until the last step that reads it (or
// forever if unread). Returns an error describing the first violation.
func CheckNoLiveOverlap(g *Graph, p *Plan) error {
	lastUse := lastUses(g)
	for a := range g.Ops {
		for b := a + 1; b < len(g.Ops); b++ {
			if p.Assign[a] == p.Assign[b] && liveTogether(a, b, lastUse) {
				return fmt.Errorf("memplan: ops %d (%s) and %d (%s) share buffer %d with overlapping lifetimes",
					a, g.Ops[a].Name, b, g.Ops[b].Name, p.Assign[a])
			}
		}
	}
	return nil
}
