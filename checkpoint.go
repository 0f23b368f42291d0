package crossbow

import (
	"fmt"
	"strconv"

	"crossbow/internal/ckpt"
)

// SaveModel writes a training result's model (the central average model for
// SMA/EA-SGD, the global model for S-SGD) to path as an atomic, checksummed
// checkpoint. Cluster runs record their server count and interconnect in
// the checkpoint metadata.
func SaveModel(path string, model Model, res *Result) error {
	if res == nil || len(res.Series) == 0 {
		return fmt.Errorf("crossbow: empty result")
	}
	if res.Params == nil {
		return fmt.Errorf("crossbow: result carries no model parameters")
	}
	c := &ckpt.Checkpoint{
		Model:        string(model),
		Epoch:        res.Series[len(res.Series)-1].Epoch,
		BestAccuracy: res.BestAccuracy,
		Params:       res.Params,
	}
	if res.Servers > 1 {
		c.Meta = map[string]string{
			"servers":      strconv.Itoa(res.Servers),
			"interconnect": res.Interconnect.Name,
		}
	}
	return ckpt.Save(path, c)
}

// LoadModel reads a checkpoint from path, returning the model identity,
// parameters and recorded training context.
func LoadModel(path string) (Model, []float32, int, float64, error) {
	c, err := ckpt.Load(path)
	if err != nil {
		return "", nil, 0, 0, err
	}
	return Model(c.Model), c.Params, c.Epoch, c.BestAccuracy, nil
}

// Checkpoint is a loaded model snapshot with its recorded training
// context.
type Checkpoint struct {
	// Model names the architecture the parameters belong to.
	Model Model
	// Epoch is the number of completed epochs.
	Epoch int
	// BestAccuracy is the best test accuracy observed so far.
	BestAccuracy float64
	// Meta carries optional training context: cluster runs record
	// "servers" and "interconnect". Empty for single-server checkpoints.
	Meta map[string]string
	// SnapshotRound and SnapshotIter identify the published snapshot this
	// checkpoint carries (see Snapshot): the synchronisation-round version
	// of the central average model and the per-learner iteration count it
	// represents. Zero for end-of-training checkpoints (SaveModel).
	SnapshotRound int64
	SnapshotIter  int64
	// Params is the flat model vector.
	Params []float32
}

// LoadCheckpoint reads a checkpoint with its full metadata (including the
// cluster context SaveModel records for multi-server runs).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	c, err := ckpt.Load(path)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Model:         Model(c.Model),
		Epoch:         c.Epoch,
		BestAccuracy:  c.BestAccuracy,
		Meta:          c.Meta,
		SnapshotRound: c.SnapshotRound,
		SnapshotIter:  c.SnapshotIter,
		Params:        c.Params,
	}, nil
}

// SaveSnapshot writes a published training snapshot (Config.PublishEvery /
// OnSnapshot) to path as an atomic, checksummed checkpoint carrying the
// snapshot's round version — so a `crossbow serve -ckpt` process serves the
// exact published model and reports its version with every prediction.
func SaveSnapshot(path string, s Snapshot) error {
	if len(s.Params) == 0 {
		return fmt.Errorf("crossbow: snapshot carries no parameters")
	}
	return ckpt.Save(path, snapshotCheckpoint(s))
}

// snapshotCheckpoint is a published snapshot as a checkpoint-v3 document,
// the one conversion SaveSnapshot, the rejoin protocol and the model feed
// share. The checkpoint shares s.Params.
func snapshotCheckpoint(s Snapshot) *ckpt.Checkpoint {
	return &ckpt.Checkpoint{
		Model:         string(s.Model),
		Epoch:         s.Epoch,
		SnapshotRound: int64(s.Round),
		SnapshotIter:  int64(s.Iter),
		Params:        s.Params,
	}
}
