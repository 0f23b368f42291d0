// Package ckpt persists trained models and training state (DESIGN.md §7).
// Checkpoints are a small binary format (magic, version, metadata, raw
// little-endian float32 parameters, CRC) written atomically, so long
// training runs can resume after interruption and trained central average
// models can ship to downstream users. There is one format, v3: besides
// the parameters it carries the cluster metadata section and the snapshot
// section — the published model's round version (DESIGN.md §11) — so a
// serving process can report exactly which training snapshot answers each
// prediction. Read refuses every other version.
package ckpt
