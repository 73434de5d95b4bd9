package core

import (
	"fmt"
	"math/rand"

	"tcss/internal/fault"
	"tcss/internal/opt"
	"tcss/internal/par"
	"tcss/internal/tensor"
	"tcss/internal/train"
)

// HausdorffVariant selects how (and whether) the social-spatial head is
// applied, covering the ablation rows of Table II.
type HausdorffVariant int

// The variants of the social-spatial component.
const (
	// SocialHausdorff is the full TCSS head: N(v) = POIs visited by v's
	// friends.
	SocialHausdorff HausdorffVariant = iota
	// SelfHausdorff replaces N(v) with v's own visited POIs, removing the
	// social influence (Table II row "Self-Hausdorff").
	SelfHausdorff
	// NoHausdorff trains with L2 only (Table II row "Remove L1 (λ=0)").
	NoHausdorff
	// ZeroOut trains with L2 only and, at recommendation time, disregards
	// POIs farther than σ = 1% of d_max from the user's nearest own POI
	// (Table II row "Zero-out").
	ZeroOut
)

// String names the variant.
func (v HausdorffVariant) String() string {
	switch v {
	case SocialHausdorff:
		return "social-hausdorff"
	case SelfHausdorff:
		return "self-hausdorff"
	case NoHausdorff:
		return "no-l1"
	case ZeroOut:
		return "zero-out"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// The training settings no caller varies, fixed at the values DefaultConfig
// documents.
const (
	eps              = 1e-6 // division guard ε of the Hausdorff head (paper: 1e-6)
	trainLR          = 0.1  // Adam learning rate of the full-batch schedule
	trainWeightDecay = 0.01 // Adam decoupled weight decay of the full-batch schedule
	negPerPos        = 1    // negatives drawn per positive under NegSampling (paper: 1)
	zeroOutSigmaFrac = 0.01 // zero-out threshold σ as a fraction of d_max (paper: 0.01)
)

// Config holds the training hyperparameters a caller chooses. DefaultConfig
// returns the paper's defaults (§V-D).
type Config struct {
	Rank   int     // embedding length r (paper default 10)
	WPos   float64 // positive entry weight w₊ (0.99)
	WNeg   float64 // unlabeled entry weight w₋ (0.01)
	Lambda float64 // social Hausdorff weight λ (0.1)
	Alpha  float64 // smooth-minimum exponent α (−1)

	Epochs int

	Init    InitMethod
	Variant HausdorffVariant

	// NegSampling switches L2 from the whole-data rewritten loss to the
	// NCF-style sampled loss (Table II row "Negative sampling"), drawing
	// negPerPos negatives per positive.
	NegSampling bool

	// UsersPerEpoch stochastically subsamples users for the L1 head each
	// epoch (0 = all users). The head's loss and gradient are rescaled by
	// I/UsersPerEpoch so the expectation is unchanged.
	UsersPerEpoch int

	// DisableEntropy turns off the location-entropy weights e_j, isolating
	// their contribution in ablation benches.
	DisableEntropy bool

	// Workers bounds the goroutines used by the parallel loss kernels and the
	// zero-out filter build (0 = par.DefaultWorkers, i.e. GOMAXPROCS).
	// Results are reproducible for a fixed value and bit-for-bit identical to
	// the serial loops at Workers = 1; other counts only regroup
	// floating-point reductions (shards always merge in ascending order).
	Workers int

	Seed int64

	// EpochCallback, when non-nil, is invoked after every epoch with the
	// current model and total loss — Figure 9's convergence curves hook in
	// here.
	EpochCallback func(epoch int, m *Model, loss float64)

	// CheckpointPath, when non-empty, makes Train write resumable
	// checkpoints (model factors plus engine state, persisted as a
	// JSONVersion model file) after every CheckpointEvery-th epoch and
	// after the final one. A checkpoint file is also a complete model file:
	// Open reads it, returning the training state beside the model.
	CheckpointPath string

	// CheckpointEvery is the epoch period of mid-run checkpoints (<= 0:
	// final epoch only).
	CheckpointEvery int

	// ResumePath, when non-empty, makes Train continue a checkpointed run
	// instead of initializing fresh factors: the model, optimizer moments,
	// RNG stream position, and completed-epoch count are restored from the
	// file and training proceeds up to Epochs. The resumed run is
	// bit-identical to an uninterrupted one under the same Config. When the
	// newest file at ResumePath is torn or corrupt (a crash landed mid-save
	// before crash-safe writes, or the disk rotted), Train falls back down
	// the rotation ladder (ResumePath.1, .2, …) to the newest intact copy.
	ResumePath string

	// CheckpointKeep is how many rotated prior checkpoints to retain next to
	// CheckpointPath (path.1 … path.N) as a recovery fallback ladder; 0 keeps
	// only the newest file.
	CheckpointKeep int

	// FS, when non-nil, routes checkpoint writes through an injectable
	// filesystem seam (fault.InjectFS in crash harnesses); nil uses the real
	// filesystem.
	FS fault.FS

	// Storage selects how the returned model stores its factor matrices
	// (StorageFloat64, StorageFloat32, StorageInt8). Training itself always
	// runs in float64 — checkpoints and the EpochCallback model are
	// unaffected — and the finished model is converted once at the end, so a
	// compact mode changes only serving memory, never convergence.
	Storage StorageMode
}

// DefaultConfig returns the default hyperparameters of this implementation.
// They follow the paper (§V-D) with two documented adaptations for the
// full-batch training regime used here:
//
//   - The paper trains mini-batched Adam at lr 1e-3 with weight decay 0.1;
//     this implementation takes one full-batch step per epoch, so the
//     equivalent settings are lr 0.1, weight decay 0.01 (the constants
//     trainLR and trainWeightDecay) over ~250 epochs.
//   - The paper's social Hausdorff head uses raw kilometre distances; this
//     implementation normalizes distances by d_max (see Hausdorff), which
//     rescales λ. λ = 5 here plays the role of the paper's λ = 0.1.
//
// Everything else is the paper's default: rank 10, (w₊, w₋) = (0.99, 0.01),
// α = −1, ε = 1e-6, spectral initialization, whole-data training.
func DefaultConfig() Config {
	return Config{
		Rank: 10, WPos: 0.99, WNeg: 0.01, Lambda: 5, Alpha: -1,
		Epochs: 250, Init: SpectralInit, Variant: SocialHausdorff,
	}
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.Rank <= 0 {
		return fmt.Errorf("core: rank must be positive, got %d", c.Rank)
	}
	if c.Epochs < 0 {
		return fmt.Errorf("core: epochs must be non-negative, got %d", c.Epochs)
	}
	if c.WPos <= 0 || c.WNeg < 0 {
		return fmt.Errorf("core: weights (w+=%g, w-=%g) invalid", c.WPos, c.WNeg)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("core: lambda must be non-negative, got %g", c.Lambda)
	}
	if c.UsersPerEpoch < 0 {
		return fmt.Errorf("core: UsersPerEpoch must be non-negative, got %d", c.UsersPerEpoch)
	}
	if c.CheckpointKeep < 0 {
		return fmt.Errorf("core: CheckpointKeep must be non-negative, got %d", c.CheckpointKeep)
	}
	if !c.Storage.valid() {
		return fmt.Errorf("core: unknown storage mode %d", int(c.Storage))
	}
	if err := par.Validate(c.Workers); err != nil {
		return err
	}
	return nil
}

// permInto fills buf[:n] with a pseudo-random permutation of [0, n),
// consuming the exact RNG draws of rng.Perm(n) and producing the identical
// permutation — it is that algorithm run into a caller-owned buffer, so the
// per-epoch user subsample allocates nothing after the first epoch.
func permInto(rng *rand.Rand, buf []int, n int) []int {
	p := buf[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Train fits a TCSS model to the observed training tensor with the given
// side information. side may be nil only for variants that never touch it
// (NoHausdorff with no zero-out filter would still need it for nothing); all
// paper configurations pass it.
//
// Train is a composition over the internal/train engine: it builds the L2
// head (whole-data or negative-sampling) and, for the social variants, the
// weighted Hausdorff L1 head, exposes the factor matrices as named parameter
// groups, and lets the engine drive epochs, Adam steps, callbacks, and
// checkpoint/resume.
func Train(x *tensor.COO, side *SideInfo, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	needSide := cfg.Variant == SocialHausdorff || cfg.Variant == SelfHausdorff || cfg.Variant == ZeroOut
	if needSide && side == nil {
		return nil, fmt.Errorf("core: variant %v requires side information", cfg.Variant)
	}
	rng := train.NewRNG(cfg.Seed)
	var m *Model
	var resume *train.State
	if cfg.ResumePath != "" {
		var f *File
		var err error
		m, f, err = Open(cfg.ResumePath)
		if err != nil {
			return nil, err
		}
		// A checkpoint is a heap-decoded JSON file, so there is nothing to
		// release; a mapped binary snapshot has no training state and is
		// turned away below before anything writes through its factors.
		defer f.Close()
		if resume = f.Train; resume == nil {
			return nil, fmt.Errorf("core: %s has no training state to resume (plain model file)", cfg.ResumePath)
		}
		if m.I != x.DimI || m.J != x.DimJ || m.K != x.DimK || m.Rank != cfg.Rank {
			return nil, fmt.Errorf("core: checkpoint shape %dx%dx%d rank %d does not match data %dx%dx%d rank %d",
				m.I, m.J, m.K, m.Rank, x.DimI, x.DimJ, x.DimK, cfg.Rank)
		}
	} else {
		m = NewModel(x.DimI, x.DimJ, x.DimK, cfg.Rank)
		// The engine RNG consumes the same stream as the bare source the
		// initializer always used; its draws are counted, so a resumed run
		// fast-forwards past initialization too.
		if err := m.Initialize(cfg.Init, x, rng.Rand); err != nil {
			return nil, err
		}
	}

	var head *Hausdorff
	switch cfg.Variant {
	case SocialHausdorff, SelfHausdorff:
		sets := side.FriendPOIs
		if cfg.Variant == SelfHausdorff {
			sets = side.OwnPOIs
		}
		entropyW := side.EntropyW
		if cfg.DisableEntropy {
			entropyW = nil
		}
		head = NewHausdorff(side.Dist, entropyW, sets)
		head.Alpha = cfg.Alpha
	}

	grads := NewGrads(m)
	// Head order matters for the RNG stream: L2 draws its negatives before
	// L1 draws its user subsample, exactly as the pre-engine loop did.
	heads := []train.Head{{W: 1, Loss: func(int) (float64, error) {
		if cfg.NegSampling {
			n := int(negPerPos * float64(x.NNZ()))
			negs, err := SampleNegatives(x, n, rng.Rand)
			if err != nil {
				return 0, err
			}
			return m.NegSamplingLossWorkers(x, negs, cfg.WPos, cfg.WNeg, grads, cfg.Workers), nil
		}
		return m.WholeDataLossWorkers(x, cfg.WPos, cfg.WNeg, grads, cfg.Workers), nil
	}}}

	if head != nil && cfg.Lambda > 0 {
		allUsers := make([]int, m.I)
		for i := range allUsers {
			allUsers[i] = i
		}
		users := func() ([]int, float64) { return allUsers, 1 }
		if cfg.UsersPerEpoch > 0 && cfg.UsersPerEpoch < m.I {
			permBuf := make([]int, m.I)
			scale := float64(m.I) / float64(cfg.UsersPerEpoch)
			users = func() ([]int, float64) { return permInto(rng.Rand, permBuf, m.I)[:cfg.UsersPerEpoch], scale }
		}
		heads = append(heads, head.trainHead(m, grads, cfg.Lambda, cfg.Workers, users))
	}

	tcfg := train.Config{
		Epochs:          cfg.Epochs,
		CheckpointEvery: cfg.CheckpointEvery,
	}
	if cfg.EpochCallback != nil {
		tcfg.Callback = func(epoch int, loss float64) { cfg.EpochCallback(epoch, m, loss) }
	}
	if cfg.CheckpointPath != "" {
		path := cfg.CheckpointPath
		tcfg.Save = func(st train.State) error {
			return m.SaveCheckpointRotate(cfg.FS, path, cfg.CheckpointKeep, &st)
		}
	}
	driver, err := train.New(grads.groups(m), heads, nil, opt.NewAdam(trainLR, trainWeightDecay), rng, tcfg)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		if err := driver.Restore(*resume, drawCeiling(m, x, cfg, resume.Epoch)); err != nil {
			return nil, err
		}
	}
	if err := driver.Run(); err != nil {
		return nil, err
	}

	if cfg.Variant == ZeroOut {
		m.ZeroOutFilter = buildZeroOutFilter(m, side, zeroOutSigmaFrac, cfg.Workers)
	}
	return m.ToStorage(cfg.Storage)
}

// drawCeiling bounds the engine RNG draws a run of this configuration can
// have consumed after epochs epochs: two rand calls per factor cell at
// initialization, then each epoch three Intn calls per negative-sampling
// attempt and one per subsampled Hausdorff user. The safety factor 4 and the
// 1 024 spare draws cover the retries of rand's rejection loops (below 2 %).
func drawCeiling(m *Model, x *tensor.COO, cfg Config, epochs int) uint64 {
	var perEpoch uint64
	if cfg.NegSampling {
		perEpoch += 3 * uint64(negAttemptCap(int(negPerPos*float64(x.NNZ()))))
	}
	if cfg.UsersPerEpoch > 0 {
		perEpoch += uint64(m.I)
	}
	initCalls := 2 * uint64(m.I+m.J+m.K) * uint64(m.Rank)
	return 4*(initCalls+uint64(epochs)*perEpoch) + 1024
}

// buildZeroOutFilter marks, per user, the POIs within σ = sigmaFrac·d_max of
// the user's nearest own visited POI. Users with no training visits keep all
// POIs (an empty reference set gives the variant nothing to filter on). User
// rows are independent, so the build parallelizes over user shards with a
// bit-for-bit identical result at any worker count.
func buildZeroOutFilter(m *Model, side *SideInfo, sigmaFrac float64, workers int) [][]bool {
	sigma := sigmaFrac * side.Dist.DMax
	rows := newDistRows(side.Dist)
	filter := make([][]bool, m.I)
	par.Do(m.I, par.Clamp(workers, m.I), func(s par.Shard) {
		near := make([]float64, m.J) // distance to the nearest own POI, as Nearest takes it
		for i := s.Start; i < s.End; i++ {
			row := make([]bool, m.J)
			filter[i] = row
			own := side.OwnPOIs[i]
			if len(own) == 0 {
				for j := range row {
					row[j] = true
				}
				continue
			}
			copy(near, rows.row(own[0]))
			for _, c := range own[1:] {
				rows.lower(near, c)
			}
			for j, d := range near {
				row[j] = d <= sigma
			}
		}
	})
	return filter
}
