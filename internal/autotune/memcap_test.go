package autotune

import (
	"testing"

	"crossbow/internal/nn"
)

func TestLearnerFootprintUsesLivePlan(t *testing.T) {
	// The footprint is the replica, its gradients and the live plan's task
	// arena, which stays far below the naive no-reuse layout of the same
	// live graph.
	spec := nn.FullSpec(nn.ResNet32)
	m := nn.BuildFull(spec.Model, 32).MemPlan()
	if live, want := LearnerFootprint(spec, 32), 2*spec.ParamCount()*4+m.ArenaBytes(); live != want {
		t.Fatalf("footprint %d, want replica + gradients + arena = %d", live, want)
	}
	if m.ArenaBytes() >= m.NaiveBytes() {
		t.Fatalf("live plan does not save: arena %d vs naive %d", m.ArenaBytes(), m.NaiveBytes())
	}
}

func TestLearnerFootprintCached(t *testing.T) {
	spec := nn.FullSpec(nn.LeNet)
	a := LearnerFootprint(spec, 16)
	b := LearnerFootprint(spec, 16)
	if a != b || a <= 0 {
		t.Fatalf("footprint unstable: %d vs %d", a, b)
	}
}
