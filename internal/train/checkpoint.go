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
	// Opt is Adam's moment state: per-group step counts and first/second
	// moments.
	Opt opt.State `json:"opt"`
	// RNG is the engine RNG's stream position (zero-valued when the run is
	// deterministic without randomness).
	RNG RNGState `json:"rng"`
}

// State returns the driver's current engine state.
func (d *Driver) State() State {
	st := State{Epoch: d.epoch, Opt: d.optim.Export()}
	if d.rng != nil {
		st.RNG = d.rng.State()
	}
	return st
}

// Restore repositions the driver at a previously exported State: the
// optimizer moments are imported, the RNG is fast-forwarded to its recorded
// draw count, and Run will continue from st.Epoch. The caller must have
// already restored the parameter values. Moments that do not fit the
// model's groups are refused here, before a step could index past them, and
// so is a draw count above maxDraws, the most the caller's run can have
// consumed by st.Epoch: the fast-forward takes one source step per draw.
func (d *Driver) Restore(st State, maxDraws uint64) error {
	if st.Epoch < 0 || st.Epoch > d.cfg.Epochs {
		return fmt.Errorf("train: checkpoint epoch %d outside run of %d epochs", st.Epoch, d.cfg.Epochs)
	}
	if err := d.checkMoments(st.Opt); err != nil {
		return err
	}
	if d.rng != nil && st.RNG.Draws > maxDraws {
		return fmt.Errorf("train: checkpoint records %d RNG draws, more than the %d its %d epochs can consume", st.RNG.Draws, maxDraws, st.Epoch)
	}
	if err := d.optim.Import(st.Opt); err != nil {
		return err
	}
	if d.rng != nil {
		d.rng.Restore(st.RNG)
	}
	d.epoch = st.Epoch
	return nil
}

// checkMoments rejects optimizer state that does not describe the model's
// parameter groups: an unknown group, moments whose length is not the
// group's, or a step count without moments (or moments without one).
func (d *Driver) checkMoments(st opt.State) error {
	size := make(map[string]int)
	for _, g := range d.groups {
		size[g.Name] = len(g.Value)
	}
	names := make(map[string]struct{})
	for name := range st.Steps {
		names[name] = struct{}{}
	}
	for name := range st.M {
		names[name] = struct{}{}
	}
	for name := range st.V {
		names[name] = struct{}{}
	}
	for name := range names {
		n, ok := size[name]
		if !ok {
			return fmt.Errorf("train: checkpoint has optimizer state for unknown group %q", name)
		}
		_, stepped := st.Steps[name]
		m, hasM := st.M[name]
		v, hasV := st.V[name]
		if stepped != hasM || hasM != hasV {
			return fmt.Errorf("train: checkpoint group %q has a step count or moments without the other", name)
		}
		if len(m) != n || len(v) != n {
			return fmt.Errorf("train: checkpoint group %q has moments of length %d/%d for %d parameters", name, len(m), len(v), n)
		}
	}
	return nil
}
