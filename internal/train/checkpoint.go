package train

import (
	"fmt"

	"tcss/internal/opt"
)

// State is the engine's serializable position within a run: everything
// beyond the parameters themselves that a resumed run needs to continue
// bit-identically. Parameters travel separately, in the caller's own model
// persistence (core's versioned model files).
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
// already restored the parameter values.
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
