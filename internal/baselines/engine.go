package baselines

import (
	"math/rand"

	"tcss/internal/core"
	"tcss/internal/nn"
	"tcss/internal/opt"
	"tcss/internal/tensor"
	"tcss/internal/train"
)

// layerGroups flattens the named parameters of nn layers into engine groups,
// optionally preceded by raw groups (CoSTCo's convolution kernels). The
// order matches the pre-engine nn.StepAll traversal, and Adam's moment state
// is per-name, so stepping all groups before zeroing (the engine's order) is
// bit-identical to the old per-layer step-and-zero.
func layerGroups(raw train.GroupSet, layers ...nn.Layer) train.GroupSet {
	gs := raw
	for _, l := range layers {
		for _, p := range l.Params() {
			gs = append(gs, train.Group{Name: p.Name, Value: p.Value, Grad: p.Grad})
		}
	}
	return gs
}

// fitEngine is the shared training run of the gradient-trained neural
// baselines (NCF, NTM, CoSTCo): each epoch pairs every observed positive
// with one sampled negative, shuffles, and applies per-example BCE steps
// with gradient accumulation every batchSize examples — all driven by the
// internal/train engine, which also provides checkpoint/resume via the
// Context fields.
func fitEngine(ctx *Context, lr float64, groups train.GroupSet, step func(tensor.Entry) float64, rng *train.RNG) error {
	x := ctx.Train
	epochs := ctx.Epochs
	if epochs <= 0 {
		epochs = 10
	}
	mb := &train.MiniBatch{
		Examples: func(_ int, rng *rand.Rand) ([]tensor.Entry, error) {
			negs, err := core.SampleNegatives(x, x.NNZ(), rng)
			if err != nil {
				return nil, err
			}
			batch := make([]tensor.Entry, 0, 2*x.NNZ())
			batch = append(batch, x.Entries()...)
			batch = append(batch, negs...)
			return batch, nil
		},
		Step:      step,
		BatchSize: batchSize,
	}
	d, err := train.New(groups, nil, mb, opt.NewAdam(lr, 0), rng, train.Config{
		Epochs:          epochs,
		CheckpointPath:  ctx.CheckpointPath,
		CheckpointEvery: ctx.CheckpointEvery,
	})
	if err != nil {
		return err
	}
	if ctx.ResumePath != "" {
		// Fall back down the rotation ladder if the newest checkpoint is torn.
		if _, err := d.LoadCheckpointFallback(ctx.ResumePath); err != nil {
			return err
		}
	}
	return d.Run()
}
