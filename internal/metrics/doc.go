// Package metrics implements the evaluation metrics of the paper and the
// runtime's observability types (DESIGN.md §6): test-accuracy series,
// epochs-to-accuracy (ETA, statistical efficiency), time-to-accuracy (TTA,
// §5.1), wall-clock epoch measurements (WallPoint), cluster scaling points,
// memory-plane statistics (MemoryStats, DESIGN.md §10) and serving-plane
// statistics (ServingStats with the lock-free LatencyRecorder, DESIGN.md
// §11).
package metrics
