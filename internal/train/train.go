// Package train is the shared training engine behind every gradient-trained
// model in this repository: the TCSS tensor-completion loss (core.Train), its
// warm-start online updates (Model.UpdateOnline, and through it the serving
// writer path), and the neural baselines (NCF, NTM, CoSTCo). Before the
// engine existed each of those carried its own hand-rolled epoch loop; none
// could checkpoint, resume, or share gradient clipping or callback logic.
//
// The engine separates three concerns:
//
//   - A model exposes its parameters as named flat float64 groups
//     (Trainable/Group — the same shape internal/opt steps and internal/nn's
//     Param already uses), so the driver can zero, clip and step them
//     without knowing the model type.
//   - The objective is a sum of weighted Heads (full-batch regime: the
//     whole-data/negative-sampling L2 head plus the social Hausdorff L1
//     head), or a MiniBatch specification (example-level SGD with gradient
//     accumulation, the neural baselines' regime).
//   - The Driver owns the epoch loop: gradient zeroing, head evaluation or
//     batch sweeps, global gradient clipping, Adam steps at a fixed rate,
//     epoch callbacks, and checkpoint/resume.
//
// Checkpointing records the optimizer moment state, the RNG stream position,
// and the number of completed epochs (State); the parameter groups travel in
// the caller's own persistence format — core embeds both in its versioned
// model files. Restoring all of it makes a resumed run bit-identical to an
// uninterrupted one, which core's resume-determinism tests assert.
package train

import (
	"fmt"

	"tcss/internal/opt"
)

// Group is one named parameter group with its gradient accumulator, the unit
// the optimizer steps. Value and Grad alias the model's own storage.
type Group struct {
	Name        string
	Value, Grad []float64
}

// Trainable exposes a model's parameters to the driver. Groups must return
// the same names, order, and backing slices on every call.
type Trainable interface {
	Groups() []Group
	// ZeroGrad clears every gradient accumulator.
	ZeroGrad()
}

// GroupSet is the simplest Trainable: a fixed, ordered list of groups.
type GroupSet []Group

// Groups implements Trainable.
func (g GroupSet) Groups() []Group { return g }

// ZeroGrad implements Trainable.
func (g GroupSet) ZeroGrad() {
	for _, gr := range g {
		for i := range gr.Grad {
			gr.Grad[i] = 0
		}
	}
}

// Head is one additive component of a full-batch training objective. Loss
// evaluates the component at the given epoch and accumulates the gradient of
// Weight()·loss into the trainable's gradient buffers; the driver reports
// Σ Weight()·Loss() as the epoch loss. A head that subsamples or draws
// negatives consumes the engine RNG it captured at composition time, so the
// stream position is part of the checkpointed state.
type Head interface {
	Loss(epoch int) (float64, error)
	Weight() float64
}

// HeadFunc adapts a closure plus a constant weight to the Head interface.
type HeadFunc struct {
	F func(epoch int) (float64, error)
	W float64
}

// Loss implements Head.
func (h HeadFunc) Loss(epoch int) (float64, error) { return h.F(epoch) }

// Weight implements Head.
func (h HeadFunc) Weight() float64 { return h.W }

// Config collects the loop-level knobs shared by every training run.
type Config struct {
	// Epochs is the total epoch count of the run; a resumed driver continues
	// from its restored epoch up to this total.
	Epochs int

	// GradClip, when positive, rescales the joint gradient of all groups to
	// this Euclidean norm bound before each optimizer step (full-batch
	// regime only; the mini-batch baselines never clipped).
	GradClip float64

	// Callback, when non-nil, observes every completed epoch with its total
	// weighted loss.
	Callback func(epoch int, loss float64)

	// Save, when non-nil, persists a checkpoint of the given engine state;
	// it runs after every CheckpointEvery-th epoch and after the final one.
	// The engine stores no parameters: the caller writes the state next to
	// them in its own persistence format (core's versioned model files).
	Save func(st State) error

	// CheckpointEvery is the epoch period of checkpoints (<= 0: final epoch
	// only).
	CheckpointEvery int
}

// Driver runs the epoch loop over one model. Construct with New, optionally
// Restore a checkpointed state, then Run.
type Driver struct {
	cfg   Config
	model Trainable
	heads []Head
	batch *MiniBatch
	rng   *RNG
	optim *opt.Adam

	epoch int // completed epochs; the next epoch to run
}

// New builds a driver over the model with either a full-batch objective
// (heads) or a mini-batch one (batch) — exactly one must be given. rng may
// be nil when no component draws randomness.
func New(model Trainable, heads []Head, batch *MiniBatch, optim *opt.Adam, rng *RNG, cfg Config) (*Driver, error) {
	if model == nil {
		return nil, fmt.Errorf("train: nil model")
	}
	if (len(heads) == 0) == (batch == nil) {
		return nil, fmt.Errorf("train: exactly one of heads or batch must be set")
	}
	if batch != nil {
		if batch.Examples == nil || batch.Step == nil {
			return nil, fmt.Errorf("train: MiniBatch needs Examples and Step")
		}
		if batch.BatchSize <= 0 {
			return nil, fmt.Errorf("train: MiniBatch batch size must be positive, got %d", batch.BatchSize)
		}
		if rng == nil {
			return nil, fmt.Errorf("train: MiniBatch regime needs an engine RNG for shuffling")
		}
		if cfg.GradClip > 0 {
			return nil, fmt.Errorf("train: GradClip is a full-batch feature")
		}
	}
	if cfg.Epochs < 0 {
		return nil, fmt.Errorf("train: epochs must be non-negative, got %d", cfg.Epochs)
	}
	if optim == nil {
		return nil, fmt.Errorf("train: nil optimizer")
	}
	seen := make(map[string]struct{})
	for _, g := range model.Groups() {
		if len(g.Value) != len(g.Grad) {
			return nil, fmt.Errorf("train: group %q value/grad length mismatch %d vs %d", g.Name, len(g.Value), len(g.Grad))
		}
		if _, dup := seen[g.Name]; dup {
			return nil, fmt.Errorf("train: duplicate parameter group %q", g.Name)
		}
		seen[g.Name] = struct{}{}
	}
	return &Driver{cfg: cfg, model: model, heads: heads, batch: batch, optim: optim, rng: rng}, nil
}

// Run executes epochs from the current position (0, or the restored epoch)
// through cfg.Epochs. Each epoch: zero gradients, evaluate the objective
// (heads, or a shuffled mini-batch sweep), clip, step the optimizer, invoke
// the callback, and checkpoint when due. On error the model holds the last
// completed epoch's parameters.
func (d *Driver) Run() error {
	for d.epoch < d.cfg.Epochs {
		epoch := d.epoch
		var total float64
		var err error
		if d.batch != nil {
			total, err = d.runBatchEpoch(epoch)
		} else {
			total, err = d.runHeadsEpoch(epoch)
		}
		if err != nil {
			return err
		}
		d.epoch = epoch + 1
		if d.cfg.Callback != nil {
			d.cfg.Callback(epoch, total)
		}
		if d.checkpointDue() {
			if err := d.cfg.Save(d.State()); err != nil {
				return fmt.Errorf("train: checkpoint after epoch %d: %w", epoch, err)
			}
		}
	}
	return nil
}

// runHeadsEpoch is one full-batch epoch: a single optimizer step over the
// summed weighted head gradients.
func (d *Driver) runHeadsEpoch(epoch int) (float64, error) {
	d.model.ZeroGrad()
	var total float64
	for _, h := range d.heads {
		l, err := h.Loss(epoch)
		if err != nil {
			return 0, err
		}
		total += h.Weight() * l
	}
	groups := d.model.Groups()
	if d.cfg.GradClip > 0 {
		grads := make([][]float64, len(groups))
		for i, g := range groups {
			grads[i] = g.Grad
		}
		opt.ClipGradNorm(d.cfg.GradClip, grads...)
	}
	for _, g := range groups {
		d.optim.Step(g.Name, g.Value, g.Grad)
	}
	return total, nil
}

// checkpointDue reports whether a checkpoint should be written after the
// just-completed epoch: every CheckpointEvery epochs, and always after the
// final one.
func (d *Driver) checkpointDue() bool {
	if d.cfg.Save == nil {
		return false
	}
	if d.epoch == d.cfg.Epochs {
		return true
	}
	return d.cfg.CheckpointEvery > 0 && d.epoch%d.cfg.CheckpointEvery == 0
}

// stepGroups applies one optimizer update to every group, then zeroes the
// gradient accumulators — the shared tail of a gradient-accumulation batch.
func (d *Driver) stepGroups() {
	for _, g := range d.model.Groups() {
		d.optim.Step(g.Name, g.Value, g.Grad)
	}
	d.model.ZeroGrad()
}
