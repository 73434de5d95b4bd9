package train

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"tcss/internal/fault"
	"tcss/internal/opt"
)

// State is the engine's serializable position within a run: everything
// beyond the parameters themselves that a resumed run needs to continue
// bit-identically. Parameters travel separately — embedded in a Checkpoint
// for the generic format, or in the caller's own model persistence (core's
// versioned model files).
type State struct {
	// Epoch is the number of completed epochs.
	Epoch int `json:"epoch"`
	// Opt is the optimizer's moment state (Adam first/second moments and
	// per-group step counts, or SGD velocities).
	Opt opt.State `json:"opt"`
	// RNG is the engine RNG's stream position (zero-valued when the run is
	// deterministic without randomness).
	RNG RNGState `json:"rng"`
}

// CheckpointVersion is the frame version of the generic engine checkpoint
// written by SaveCheckpoint, and the only one LoadCheckpoint reads: a JSON
// Checkpoint document sealed in a CRC32-C integrity frame (fault.WriteFramed),
// so torn or bit-flipped checkpoints are rejected with fault.ErrChecksum at
// load instead of being half-read.
const CheckpointVersion = 2

// ErrCheckpointVersion is the sentinel wrapped by LoadCheckpoint for files
// written by an incompatible build. Test with errors.Is.
var ErrCheckpointVersion = errors.New("train: unsupported checkpoint version")

// Checkpoint is the generic self-contained checkpoint: the engine state plus
// every parameter group by name. Models with their own persistence format
// (core.Model) store a State inside that format instead.
type Checkpoint struct {
	Version int `json:"version"`
	State
	Params map[string][]float64 `json:"params"`
}

// State returns the driver's current engine state. The optimizer must be
// stateful (enforced at New when checkpointing is configured).
func (d *Driver) State() State {
	st := State{Epoch: d.epoch}
	if s, ok := d.inner.(opt.Stateful); ok {
		st.Opt = s.Export()
	}
	if d.rng != nil {
		st.RNG = d.rng.State()
	}
	return st
}

// Restore repositions the driver at a previously exported State: the
// optimizer moments are imported, the RNG is fast-forwarded to its recorded
// draw count, and Run will continue from st.Epoch. The caller must have
// already restored the parameter values (LoadCheckpoint does both).
func (d *Driver) Restore(st State) error {
	if st.Epoch < 0 || st.Epoch > d.cfg.Epochs {
		return fmt.Errorf("train: checkpoint epoch %d outside run of %d epochs", st.Epoch, d.cfg.Epochs)
	}
	s, ok := d.inner.(opt.Stateful)
	if !ok {
		return fmt.Errorf("train: restore needs a stateful optimizer, got %T", d.inner)
	}
	if err := s.Import(st.Opt); err != nil {
		return err
	}
	if d.rng != nil {
		d.rng.Restore(st.RNG)
	}
	d.epoch = st.Epoch
	return nil
}

// Checkpoint captures the full generic checkpoint: the engine state plus a
// deep copy of every parameter group.
func (d *Driver) Checkpoint() Checkpoint {
	params := make(map[string][]float64)
	for _, g := range d.model.Groups() {
		params[g.Name] = append([]float64(nil), g.Value...)
	}
	return Checkpoint{Version: CheckpointVersion, State: d.State(), Params: params}
}

// SaveCheckpoint writes the generic checkpoint as framed JSON. float64
// values round-trip exactly through encoding/json (shortest round-trippable
// decimal), so a restored run is bit-identical, which the resume tests
// assert.
func (d *Driver) SaveCheckpoint(w io.Writer) error {
	payload, err := json.Marshal(d.Checkpoint())
	if err != nil {
		return fmt.Errorf("train: encoding checkpoint: %w", err)
	}
	payload = append(payload, '\n')
	if err := fault.WriteFramed(w, CheckpointVersion, payload); err != nil {
		return fmt.Errorf("train: writing checkpoint: %w", err)
	}
	return nil
}

// SaveCheckpointRotate writes the generic checkpoint crash-safely through fs
// (nil: the real filesystem), keeping up to keep rotated prior checkpoints
// (path.1 … path.keep) as a recovery fallback ladder.
func (d *Driver) SaveCheckpointRotate(fs fault.FS, path string, keep int) error {
	return fault.WriteFileRotate(fs, path, keep, d.SaveCheckpoint)
}

// LoadCheckpoint restores a generic checkpoint into the driver: every
// parameter group is copied back by name (all groups must be present with
// matching lengths) and the engine state is restored. Anything but a
// CheckpointVersion frame is rejected with ErrCheckpointVersion; a frame
// failing its integrity check with an error wrapping fault.ErrChecksum.
func (d *Driver) LoadCheckpoint(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("train: reading checkpoint: %w", err)
	}
	_, payload, err := fault.Unseal(data, ErrCheckpointVersion, CheckpointVersion)
	if err != nil {
		return fmt.Errorf("train: checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return fmt.Errorf("train: decoding checkpoint: %w", err)
	}
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("%w: v%d frame holds a document declaring v%d", ErrCheckpointVersion, CheckpointVersion, ck.Version)
	}
	for _, g := range d.model.Groups() {
		vals, ok := ck.Params[g.Name]
		if !ok {
			return fmt.Errorf("train: checkpoint missing parameter group %q", g.Name)
		}
		if len(vals) != len(g.Value) {
			return fmt.Errorf("train: checkpoint group %q has %d values, model wants %d", g.Name, len(vals), len(g.Value))
		}
		copy(g.Value, vals)
	}
	return d.Restore(ck.State)
}

// LoadCheckpointFallback restores from the newest checkpoint on path's
// rotation ladder that loads cleanly (fault.LoadNewest), returning the path
// it came from.
func (d *Driver) LoadCheckpointFallback(path string) (string, error) {
	return fault.LoadNewest(path, func(rung string) error {
		f, err := os.Open(rung)
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		defer f.Close()
		return d.LoadCheckpoint(f)
	})
}
