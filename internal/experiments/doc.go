// Package experiments is the reproduction harness for the paper's
// evaluation (§5): one function per table or figure, returning the rows or
// series the paper plots, and a Print function that writes them in the
// paper's layout. cmd/crossbow-bench fronts it; bench_test.go replays each
// experiment at micro scale under `go test -bench`. It measures nothing
// about this machine — that is the repo benchmark's job (benchmark/) — so
// identical arguments print identical output.
//
// # Scale mapping
//
// The hardware plane (internal/engine) always uses the paper's full-scale
// models and batch sizes on the simulated 8-GPU server, so throughput and
// epoch seconds are at paper scale. The statistical plane (internal/core)
// trains the scaled models on the synthetic datasets with batch sizes
// reduced 4× (minimum 4, see statBatch) so that the batch-to-dataset ratio
// stays in the paper's regime. TTA composes the two (runSystem): epochs to
// the target accuracy from the statistical plane times the hardware
// plane's epoch seconds. The targets (AccuracyTargets) are calibrated from
// the Figure 9 baseline curves, as the paper calibrates its own from
// TensorFlow's best accuracy.
package experiments
