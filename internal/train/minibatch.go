package train

import "math/rand"

// MiniBatch is the example-level SGD regime of the baselines: each epoch
// lays out its examples, runs Step (forward + backward, accumulating layer
// gradients) on each in turn, and lets the driver apply the optimizer every
// BatchSize examples — keeping the per-example cost at the size of the
// touched rows rather than the whole parameter set.
type MiniBatch struct {
	// Examples lays out the epoch's examples in the order Step is to see
	// them and returns their count. It may consume rng (to sample negatives
	// or shuffle); those draws are part of the checkpointed stream. The
	// engine itself draws nothing.
	Examples func(epoch int, rng *rand.Rand) (int, error)

	// Step processes example i of the epoch's layout, accumulating parameter
	// gradients, and returns the example's loss contribution.
	Step func(i int) float64

	// BatchSize is the gradient-accumulation window per optimizer step.
	BatchSize int
}

// runBatchEpoch is one mini-batch epoch: lay out the examples, step each,
// and apply the optimizer after every BatchSize-th example and after the
// last (a partial trailing batch).
func (d *Driver) runBatchEpoch(epoch int) (float64, error) {
	n, err := d.batch.Examples(epoch, d.rng.Rand)
	if err != nil {
		return 0, err
	}
	var total float64
	for s := 0; s < n; s++ {
		total += d.batch.Step(s)
		if (s+1)%d.batch.BatchSize == 0 || s == n-1 {
			d.stepGroups()
		}
	}
	return total, nil
}
