// Package memplan implements Crossbow's memory management (§4.5; DESIGN.md
// §10): an offline, reference-count-driven plan that reuses operator
// output buffers within one task, and an online planner with per-operator
// buffer pools shared by all learners on a GPU, backed by real memory and
// bounded by an optional byte budget.
//
// Deep-learning models need far more memory for operator outputs than for
// weights (the paper's ResNet-50: 97.5 MB of weights vs 7.5 GB of
// outputs), so training multiple learners per GPU — and serving multiple
// replicas per machine (DESIGN.md §11) — is only feasible with aggressive
// buffer reuse. internal/nn lowers each network's exact task dataflow —
// conv lowering scratch, batch-norm statistics and residual joins included —
// into this package's Graph; PlanOffline assigns buffers to arena slots;
// OnlinePlanner circulates whole arenas between learners so the footprint
// tracks actual task concurrency rather than learner count.
package memplan
