// Package engine implements Crossbow's concurrent task engine (§4) twice
// over, at two levels of reality.
//
// The simulated engine (engine.go, ssgd.go; DESIGN.md §3, §4) runs on
// the internal/gpusim simulator: learner streams and synchronisation
// streams per device, learning / local-synchronisation /
// global-synchronisation tasks wired by events exactly as in the paper's
// Figure 8 dataflow, with global synchronisation overlapping the next
// iteration's learning tasks. It is the hardware-efficiency plane: New
// yields iteration timing and throughput for any (model, n, g, m, b, τ,
// τ_global) configuration — above one server, all servers share one
// virtual clock and cross-server average tasks over a gpusim.Interconnect
// add a third synchronisation tier, overlapped the same way. NewSSGD is
// the S-SGD baseline.
//
// The wall-clock Runtime (runtime.go; DESIGN.md §9) executes the same
// architecture for real: a pool of learner workers bound to model
// replicas, staged batches from internal/data's pipeline, and two
// scheduling modes — Lockstep (the learners meet at a spin-then-park barrier
// before and after each optimiser step, which they apply in shards; the
// bit-deterministic oracle) and FCFS (barrier-free, learners run ahead of
// the central average model by up to τ iterations and synchronise through
// index-ordered contribution rounds). The runtime contains no optimiser
// math: drivers (internal/core) supply task and synchronisation closures,
// including the Publish hook that cuts consistent model snapshots at round
// boundaries for the serving plane (DESIGN.md §11).
package engine
