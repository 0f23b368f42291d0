// Package serve is the inference plane: a forward-only prediction runtime
// over snapshots of the central average model (DESIGN.md §11).
//
// Training and serving want different execution disciplines over the same
// state. Training runs k small-batch learners that own mutable replicas and
// synchronise through SMA; serving runs R read-only replicas of one
// published snapshot and cares about request latency and throughput. The
// engine here reuses the training stack's fast substrate — the blocked
// GEMM/conv kernels (DESIGN.md §8) and the §4.5 memory planner, in its
// forward-only form (nn.InferPlan) — so prediction is fast and
// allocation-free from the first request.
//
// Three pieces:
//
//   - Requests enter through Engine.Predict, which parks the caller on a
//     bounded queue. Request objects come from a fixed free list, so the
//     steady-state hot path performs zero heap allocations per request
//     (enforced by an AllocsPerRun test).
//
//   - A dispatcher coalesces queued requests into batches of up to MaxBatch,
//     waiting at most MaxDelay for stragglers once a batch has an occupant —
//     the dynamic micro-batching trade between occupancy (throughput) and
//     tail latency.
//
//   - R replicas claim batches first-come-first-served from a shared channel
//     (the same FCFS claim discipline the training runtime uses for staged
//     batches), copy the samples into their fixed-batch input tensor, run
//     the forward-only network — fused, conv→BN→ReLU chains in the GEMM
//     epilogues, bit-identical to the layer-by-layer forward — against a
//     per-replica planned arena, and answer each request with its arg-max
//     class and softmax confidence.
//
// Snapshots version the model: UpdateModel hot-swaps all replicas onto a
// newer published snapshot between batches, so a serving engine can trail a
// live training run (core.Snapshot, Config.PublishEvery) without dropping
// requests. metrics.ServingStats reports latency quantiles, batch occupancy
// and queue pressure.
//
// Fleet mode (DESIGN.md §16) replaces the static MaxBatch/MaxDelay knobs
// with measured control loops:
//
//   - Config.SLO enables the adaptive batching controller (adaptive.go): it
//     walks a power-of-two ladder of batch classes, tracks an EWMA of the
//     measured service time per class, and each control window picks the
//     smallest class whose extrapolated service time still fits the p99
//     target — one rung per window, so batch size is monotone in offered
//     load by construction and the batch-32 throughput falloff cannot be
//     configured into existence.
//
//   - Config.AutoScale enables the replica autoscaler (autoscale.go): it
//     reuses the training plane's Algorithm 2 tuner (autotune.Online) over
//     the replica count, with a decayed per-replica throughput high-water
//     mark for idle scale-in and a drift detector that restarts the probe
//     when load outgrows the settled configuration. Parked replicas keep
//     their arenas and resume without warm-up.
//
// Both loops leave the static path untouched: without SLO/AutoScale the
// engine behaves exactly as described above.
package serve
