// Package core is the statistical plane of the reproduction (DESIGN.md §2)
// and the training driver over the wall-clock task runtime (§9): it
// implements the paper's primary contribution — synchronous model averaging
// (SMA, Algorithm 1) with independent learners — plus the algorithms
// Crossbow is evaluated against (parallel synchronous SGD, elastic
// averaging SGD, asynchronous SGD) and the trainer that drives them over
// the scaled benchmark models to measure statistical efficiency.
// DistClusterSMA adds the cross-server tier (DESIGN.md §4, §12): one server
// per rank, reference models all-reduced through a GlobalExchanger — Loopback
// between the ranks of one process, internal/transport between processes.
//
// All algorithms operate on flat model vectors (paper §4.4: weights and
// gradients live in contiguous memory), so one package covers both the
// scaled trainable models and any other contiguous parameterisation.
// Train is a thin driver: scheduling belongs to internal/engine's Runtime,
// task memory to internal/memplan, and the optimiser math lives here as
// the closures the runtime's two modes need. Versioned snapshots of the
// central average model (Snapshot, TrainConfig.PublishEvery) feed the
// serving plane (internal/serve, DESIGN.md §11); ReplayFCFS re-executes a
// barrier-free run bit-identically from its assignment log.
package core
