// Package experiments is the reproduction harness for the paper's
// evaluation (§5): one function per table or figure, returning the rows or
// series the paper plots, and a Print function that writes them in the
// paper's layout. `crossbow figures` fronts it; bench_test.go replays each
// experiment at micro scale under `go test -bench`. It measures nothing
// about this machine — that is the repo benchmark's job (benchmark/) — so
// identical arguments print identical output.
//
// # Scale rules
//
// The hardware plane (internal/engine) runs the paper's full-scale models
// and batch sizes on the simulated 8-GPU server, so throughput and epoch
// seconds are at paper scale; Figures 2 and 17 use it alone. The
// statistical plane (internal/core) trains the scaled models on the
// synthetic datasets; Figures 3 and 9 use it alone. Every time-to-accuracy
// row (Figures 10–16) is a core.Config composed with the hardware plane by
// one function, run: TTA is the epochs to the target accuracy (the epoch
// cap when it is not reached) times FullSpec.TrainSamples / throughput.
// ttaRow writes the rules down; where a figure departs from one, that is
// row data:
//
//   - batch: the statistical plane trains at statBatch(b), b/4 with a
//     minimum of 4, for the paper's per-learner batch b, so that the
//     batch-to-dataset ratio stays in the paper's regime;
//   - samples: 2048 training samples, or eight batches per learner when
//     that is more, up to 8192 (trainSamples); Figure 16 trains on 4096;
//   - window: throughput is measured over 25 simulated iterations; Figure
//     16 uses 30, Figure 17's window;
//   - solver momentum: learners run the released system's 0.9; Figure 15's
//     run plain SGD (0) to isolate the momentum on the central average model;
//   - seed: every statistical run uses seed 1.
//
// crossbow.Train composes the same quantity under other rules: one
// Config.Batch on both planes, a 30-iteration window, Config.TrainSamples
// and solver momentum Config.Momentum. So `crossbow train -batch 64` and a
// figure's "b = 64" row are different experiments.
//
// The targets (AccuracyTargets) are calibrated from the Figure 9 baseline
// curves, as the paper calibrates its own from TensorFlow's best accuracy.
package experiments
