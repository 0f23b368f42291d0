// Package nn implements the neural-network layer library used by
// Crossbow's learners: convolution, dense, ReLU, pooling, batch
// normalisation, residual blocks and a softmax cross-entropy loss, with
// builders for the four benchmark models of the paper (LeNet, ResNet-32,
// VGG-16, ResNet-50) at two scales — trainable scaled variants (DESIGN.md
// §2) and the full Table 1 architectures for planning and cost modelling.
//
// A model's weights and gradients live in a single contiguous []float32
// (paper §4.4), owned by the replica, not by the layers; layers are bound
// to a (w, g) vector pair with Bind before use, and rebinding is cheap, so
// one network structure can evaluate any replica or the central average
// model. Layers do not allocate activations either: they declare buffers to
// the §4.5 task planner (memory.go, DESIGN.md §10), which lowers one
// learning task's exact dataflow into a memplan graph and lays out a
// per-task arena that AttachArena rebinds allocation-free. The forward-only
// variant (InferPlan/AttachInferenceArena, DESIGN.md §11) plans just the
// Predict walk for the serving plane, where backward-only caches die young,
// same-grid convolutions need no column matrix (DESIGN.md §18), and the
// arena shrinks accordingly. Compute lowers onto the blocked
// kernels of internal/tensor (DESIGN.md §8), and activations are laid out
// for them: spatial ones channel-major, [C, batch, H, W], the matrix every
// conv GEMM produces and consumes; NCHW only at the network input, which
// the stem convolution reads in place (actShape).
package nn
