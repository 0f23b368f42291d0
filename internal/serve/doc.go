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
// Two pieces:
//
//   - Requests enter through Engine.Predict, which parks the caller on a
//     bounded queue. Request objects come from a fixed free list, so the
//     steady-state hot path performs zero heap allocations per request
//     (enforced by an AllocsPerRun test).
//
//   - R replicas serve as leader and followers: a free replica takes the
//     gather token, gathers its own batch of up to MaxBatch from the queue,
//     hands the token on and runs the batch. While all are busy nobody
//     gathers, and the next free one takes what queued meanwhile at once —
//     under load the queue makes the occupancy trade. A gathering replica
//     holds a non-full batch only while stragglers keep coming within one
//     measured service time ŝ of its batch class (holdOpen, gather), never
//     past MaxDelay, spinning on a replica that is idle anyway. A request
//     to an idle engine ships at once.
//
//   - The replica copies the samples into the input tensor of the smallest
//     power-of-two batch class that holds them (one slot per class, built
//     on first use), runs the forward-only network — fused, conv→BN→ReLU
//     chains in the GEMM epilogues, bit-identical to the layer-by-layer
//     forward — against its planned arena, and answers each request with
//     its arg-max class and softmax confidence.
//
// Config is the one declaration of the serving options (crossbow.ServeConfig
// is this type), and New resolves the model source itself: Params as given,
// a checkpoint file (Config.Checkpoint), or a model feed (Config.Follow),
// whose transport.Follower the engine starts, owns and closes.
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
// Both loops drive the same replicas, straggler gate and class slots as
// the static policy: without SLO/AutoScale the engine runs the configured
// MaxBatch/MaxDelay, as described above.
package serve
