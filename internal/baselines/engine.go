package baselines

import (
	"math/rand"

	"tcss/internal/core"
	"tcss/internal/nn"
	"tcss/internal/opt"
	"tcss/internal/tensor"
	"tcss/internal/train"
)

// layerGroups turns raw named parameters (CoSTCo's convolution kernels, a
// recurrent cell's weights) followed by those of nn layers into engine
// groups. Adam's moment state is per-name, so the order only has to be
// fixed, not any particular one.
func layerGroups(raw []nn.Param, layers ...nn.Layer) []train.Group {
	gs := make([]train.Group, 0, len(raw)+len(layers))
	for _, p := range raw {
		gs = append(gs, train.Group(p))
	}
	for _, l := range layers {
		for _, p := range l.Params() {
			gs = append(gs, train.Group(p))
		}
	}
	return gs
}

// fitEngine is the training run of every gradient-trained baseline: ctx's
// epochs (10 when unset) of the mini-batch sweep mb over groups, with Adam at
// rate lr, driven by the internal/train engine.
func fitEngine(ctx *Context, lr float64, groups []train.Group, mb *train.MiniBatch, rng *train.RNG) error {
	epochs := ctx.Epochs
	if epochs <= 0 {
		epochs = 10
	}
	d, err := train.New(groups, nil, mb, opt.NewAdam(lr, 0), rng, train.Config{Epochs: epochs})
	if err != nil {
		return err
	}
	return d.Run()
}

// entryBatches is the mini-batch sweep of the neural tensor baselines (NCF,
// NTM, CoSTCo): each epoch pairs every observed positive of x with one
// sampled negative, shuffles them, and applies per-example BCE steps with
// gradient accumulation every batchSize examples.
func entryBatches(x *tensor.COO, step func(tensor.Entry) float64) *train.MiniBatch {
	var batch []tensor.Entry
	return &train.MiniBatch{
		Examples: func(_ int, rng *rand.Rand) (int, error) {
			negs, err := core.SampleNegatives(x, x.NNZ(), rng)
			if err != nil {
				return 0, err
			}
			batch = append(append(batch[:0], x.Entries()...), negs...)
			rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
			return len(batch), nil
		},
		Step:      func(i int) float64 { return step(batch[i]) },
		BatchSize: batchSize,
	}
}
