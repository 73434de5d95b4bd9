package core

import (
	"fmt"
	"math"

	"tcss/internal/opt"
	"tcss/internal/tensor"
	"tcss/internal/train"
)

// The online update's settings no caller varies.
const (
	onlineLR   = 0.02 // Adam learning rate for the update
	onlineWPos = 0.99 // class weights, as in training
	onlineWNeg = 0.01
	negPerNew  = 8 // sampled negatives per new check-in for contrast
)

// OnlineConfig controls incremental updates of an already-trained model when
// new check-ins arrive, without retraining from scratch. Gradients reach the
// rows of the new check-ins and of the sampled negatives, plus the shared
// time factors and h; the optimizer still steps every factor entry, so an
// epoch costs O(model), not O(batch).
type OnlineConfig struct {
	Epochs int // update passes over the combined objective
	Seed   int64

	// RandomGrowth starts the rows that open-world growth appends uniform
	// on [0, 1/√r), as RandomInit would, instead of warm-starting them from
	// friends and nearby POIs (GrowthHints.Random). It exists for the
	// warm-vs-random ablation.
	RandomGrowth bool

	// DecayHalfLife, when positive, exponentially decays the existing
	// training positives before folding in the new batch: every stored
	// value is multiplied by 2^(-1/DecayHalfLife) per update, so a
	// check-in's training weight halves every DecayHalfLife observe steps
	// and stale positives stop dominating the loss. Cells that fall below
	// decayFloor are dropped. Re-observing a decayed cell refreshes its
	// weight to the new entry's value. 0 disables decay.
	DecayHalfLife float64
}

// decayFloor is the weight below which decayed positives are dropped from
// the training tensor: 1/20th of a fresh check-in, reached after ~4.3
// half-lives.
const decayFloor = 0.05

// DefaultOnlineConfig returns update hyperparameters matched to
// DefaultConfig's training regime.
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{Epochs: 15}
}

// UpdateOnline folds new observed entries into the model: the entries are
// added to the training tensor, and the factors are refined against (a) the
// new positives and (b) sampled negatives for contrast. The tensor x is
// modified in place (the new entries are inserted, after time decay if
// configured); the returned count is the number of genuinely new cells.
// Entry values are honoured as gradient targets and stored weights — they
// must be positive.
//
// Entries beyond the model's dimensions fail with ErrOutOfRange: growth is
// the caller's step (Model.Grow, tensor.COO.Grow) and happens before this
// call. Compact models fail with ErrCompactModel.
//
// The refinement is a warm-start run of the internal/train engine: the same
// driver that powers offline training executes a short full-batch schedule
// over two heads (fresh positives, sampled negatives), starting from the
// model's current factors instead of a fresh initialization.
func (m *Model) UpdateOnline(x *tensor.COO, newEntries []tensor.Entry, cfg OnlineConfig) (int, error) {
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("core: online update needs positive epochs, got %d", cfg.Epochs)
	}
	if m.Mode != StorageFloat64 {
		return 0, fmt.Errorf("core: online update on %v storage (Decompress first, re-compact after): %w", m.Mode, ErrCompactModel)
	}
	for _, e := range newEntries {
		if e.I < 0 || e.J < 0 || e.K < 0 || e.I >= m.I || e.J >= m.J || e.K >= m.K {
			return 0, fmt.Errorf("core: online entry (%d,%d,%d) invalid for model %dx%dx%d: %w",
				e.I, e.J, e.K, m.I, m.J, m.K, ErrOutOfRange)
		}
		if e.Val <= 0 {
			return 0, fmt.Errorf("core: online entry (%d,%d,%d) has non-positive weight %g", e.I, e.J, e.K, e.Val)
		}
	}
	if cfg.DecayHalfLife > 0 {
		x.DecayScale(math.Exp2(-1/cfg.DecayHalfLife), decayFloor)
	}
	var fresh []tensor.Entry
	for _, e := range newEntries {
		if !x.Has(e.I, e.J, e.K) {
			x.Set(e.I, e.J, e.K, e.Val)
			fresh = append(fresh, e)
		} else if cfg.DecayHalfLife > 0 {
			// A re-visit refreshes the decayed weight of the cell.
			x.Set(e.I, e.J, e.K, e.Val)
		}
	}
	if len(fresh) == 0 {
		return 0, nil
	}

	rng := train.NewRNG(cfg.Seed)
	grads := NewGrads(m)

	heads := []train.Head{
		// New positives pulled toward 1.
		{W: 1, Loss: func(int) (float64, error) {
			var loss float64
			for _, e := range fresh {
				pred := m.Predict(e.I, e.J, e.K)
				d := pred - e.Val
				loss += onlineWPos * d * d
				m.accumEntryGrad(grads, e.I, e.J, e.K, 2*onlineWPos*(pred-e.Val))
			}
			return loss, nil
		}},
		// Sampled negatives keep the update from inflating everything.
		{W: 1, Loss: func(int) (float64, error) {
			n := int(negPerNew * float64(len(fresh)))
			negs, err := SampleNegatives(x, n, rng.Rand)
			if err != nil {
				return 0, err
			}
			var loss float64
			for _, e := range negs {
				pred := m.Predict(e.I, e.J, e.K)
				loss += onlineWNeg * pred * pred
				m.accumEntryGrad(grads, e.I, e.J, e.K, 2*onlineWNeg*pred)
			}
			return loss, nil
		}},
	}

	driver, err := train.New(grads.groups(m), heads, nil, opt.NewAdam(onlineLR, 0), rng, train.Config{Epochs: cfg.Epochs})
	if err != nil {
		return 0, err
	}
	if err := driver.Run(); err != nil {
		return 0, err
	}
	return len(fresh), nil
}
