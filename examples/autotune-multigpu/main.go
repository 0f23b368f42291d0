// Auto-tuning demonstration: Algorithm 2 selects the learners-per-GPU that
// saturates training throughput, per model and batch size, bounded by GPU
// memory (§3.4, §4.4, Figure 14). Small batches admit (and benefit from)
// more learners; large models are memory-capped.
package main

import (
	"fmt"

	"crossbow"
	"crossbow/internal/autotune"
	"crossbow/internal/engine"
	"crossbow/internal/nn"
)

func main() {
	fmt.Println("Algorithm 2 across models and batch sizes (1 GPU):")
	fmt.Printf("%-10s %6s %8s %10s %14s\n", "model", "batch", "chosen m", "mem cap", "per-learner")
	for _, id := range crossbow.Models {
		for _, b := range []int{4, 16, 64} {
			r := autotune.Tune(engine.Config{Model: id, GPUs: 1, Batch: b, Overlap: true})
			fmt.Printf("%-10s %6d %8d %10d %11.2f GB\n",
				id, b, r.Chosen, r.MemoryCap, float64(r.PerLearnerBytes)/1e9)
		}
	}

	fmt.Println("\nDecision trace for ResNet-50 at b=16 (memory-capped):")
	r := autotune.Tune(engine.Config{Model: nn.ResNet50, GPUs: 1, Batch: 16, Overlap: true})
	for _, d := range r.History {
		fmt.Printf("  m=%d -> %.0f images/s\n", d.M, d.Throughput)
	}
	fmt.Printf("chosen m=%d (memory admits at most %d learners)\n", r.Chosen, r.MemoryCap)
}
