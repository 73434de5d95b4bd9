// Package tcss is the public API of this repository: a from-scratch Go
// implementation of "Time-sensitive POI Recommendation by Tensor Completion
// with Side Information" (ICDE 2022). It ties together the LBSN data layer,
// the TCSS tensor-completion model with its social Hausdorff loss head, and
// the paper's evaluation protocol behind one façade.
//
// Quickstart:
//
//	ds := tcss.GenerateDataset("gowalla", 42)
//	rec, err := tcss.Fit(ds, tcss.Month, tcss.DefaultConfig())
//	if err != nil { ... }
//	fmt.Println(rec.Evaluate())          // Hit@10 / MRR on the held-out split
//	for _, r := range rec.Recommend(7, 5, 10) {
//	    fmt.Println(r.POI, r.Score)      // top POIs for user 7 in June
//	}
//
// The lower-level building blocks live in internal packages; everything a
// downstream user needs — dataset generation and IO, model training,
// recommendation, evaluation, and the full suite of ablation variants — is
// re-exported here.
package tcss

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"tcss/internal/core"
	"tcss/internal/eval"
	"tcss/internal/lbsn"
	"tcss/internal/tensor"
)

// Re-exported model types. See the internal/core documentation for details.
type (
	// Config holds the TCSS training hyperparameters.
	Config = core.Config
	// Model is a trained TCSS model.
	Model = core.Model
	// Recommendation is one ranked POI suggestion.
	Recommendation = core.Recommendation
	// InitMethod selects the embedding initialization strategy.
	InitMethod = core.InitMethod
	// HausdorffVariant selects the social-spatial head variant.
	HausdorffVariant = core.HausdorffVariant
	// Dataset is a complete LBSN snapshot.
	Dataset = lbsn.Dataset
	// Granularity selects the time dimension of the check-in tensor.
	Granularity = lbsn.Granularity
	// Result holds the Hit@K and MRR metrics.
	Result = eval.Result
	// StorageMode selects how a trained model's factor matrices are held in
	// memory: float64 (exact), float32 (half the bytes), or int8 with
	// per-row scales (a quarter of float32). Training always runs at
	// float64; Config.Storage converts once at the end.
	StorageMode = core.StorageMode
)

// Re-exported enum values.
const (
	SpectralInit = core.SpectralInit
	RandomInit   = core.RandomInit
	OneHotInit   = core.OneHotInit

	SocialHausdorff = core.SocialHausdorff
	SelfHausdorff   = core.SelfHausdorff
	NoHausdorff     = core.NoHausdorff
	ZeroOut         = core.ZeroOut

	Month = lbsn.Month
	Week  = lbsn.Week
	Hour  = lbsn.Hour

	StorageFloat64 = core.StorageFloat64
	StorageFloat32 = core.StorageFloat32
	StorageInt8    = core.StorageInt8
)

// ParseStorageMode parses a storage-mode name ("f64", "f32", "int8"/"i8") as
// used by Config.Storage and the CLI -storage flags.
func ParseStorageMode(s string) (StorageMode, error) { return core.ParseStorageMode(s) }

// DefaultConfig returns the default TCSS hyperparameters (the paper's §V-D
// settings adapted to this implementation's full-batch optimizer; see the
// internal/core documentation for the two documented deviations).
func DefaultConfig() Config { return core.DefaultConfig() }

// PaperConfig returns the hyperparameters exactly as printed in the paper.
func PaperConfig() Config { return core.PaperConfig() }

// GenerateDataset synthesizes one of the four paper datasets ("gowalla",
// "yelp", "foursquare", "gmu-5k") at laptop scale with the given seed. It
// panics on an unknown name; use lbsn.NewPreset via GenerateDatasetNamed for
// error handling.
func GenerateDataset(preset string, seed int64) *Dataset {
	return lbsn.MustPreset(preset, seed)
}

// LoadDataset reads a dataset previously saved with SaveDataset (or
// converted from a real LBSN dump into the three-CSV layout).
func LoadDataset(dir, name string) (*Dataset, error) { return lbsn.ReadDir(dir, name) }

// SaveDataset persists a dataset as CSV files under dir.
func SaveDataset(ds *Dataset, dir string) error { return ds.WriteDir(dir) }

// Recommender is a TCSS model fitted to a dataset, bundled with the
// train/test split and side information it was trained on.
type Recommender struct {
	Model   *Model
	Dataset *Dataset
	Gran    Granularity

	Train *tensor.COO
	Test  []tensor.Entry
	Side  *core.SideInfo

	cfg Config

	// scratch pools the reusable top-N buffers so concurrent Recommend
	// calls are allocation-free on the scoring path.
	scratch sync.Pool
}

// Fit splits the dataset's check-in tensor 80/20, builds the social-spatial
// side information from the training portion, and trains a TCSS model.
func Fit(ds *Dataset, gran Granularity, cfg Config) (*Recommender, error) {
	return FitSplit(ds, gran, cfg, 0.8)
}

// FitSplit is Fit with an explicit training fraction.
func FitSplit(ds *Dataset, gran Granularity, cfg Config, trainFrac float64) (*Recommender, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("tcss: invalid dataset: %w", err)
	}
	full := ds.Tensor(gran)
	train, test := full.Split(trainFrac, rand.New(rand.NewSource(cfg.Seed)))
	side, err := core.BuildSideInfo(ds.Social, ds.Distances(), train)
	if err != nil {
		return nil, err
	}
	side.Locs = ds.Locations()
	m, err := core.Train(train, side, cfg)
	if err != nil {
		return nil, err
	}
	return &Recommender{
		Model: m, Dataset: ds, Gran: gran,
		Train: train, Test: test, Side: side, cfg: cfg,
	}, nil
}

// AttachModel pairs an already-trained model (e.g. loaded with OpenModel)
// with its dataset, rebuilding the train/test split and side information the
// Recommender needs, without retraining. The split is reproduced from
// cfg.Seed and trainFrac, so a model trained by FitSplit and saved to disk
// can be re-attached to the identical split after a restart.
//
// The model may be LARGER than the dataset's tensor in users and POIs — the
// shape a snapshot reaches after open-world growth (ObserveOpen). The dataset
// and split are then grown to the model's dimensions with placeholder
// entities, so a restart resumes serving the grown factor rows bit-identically
// while the extra rows' side information refills as check-ins arrive. A model
// smaller than the dataset, or with a different time axis, is still rejected.
func AttachModel(m *Model, ds *Dataset, gran Granularity, cfg Config, trainFrac float64) (*Recommender, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("tcss: invalid dataset: %w", err)
	}
	full := ds.Tensor(gran)
	if m.I < full.DimI || m.J < full.DimJ || m.K != full.DimK {
		return nil, fmt.Errorf("tcss: model shape %dx%dx%d does not match dataset tensor %dx%dx%d",
			m.I, m.J, m.K, full.DimI, full.DimJ, full.DimK)
	}
	train, test := full.Split(trainFrac, rand.New(rand.NewSource(cfg.Seed)))
	if m.I > full.DimI || m.J > full.DimJ {
		grown, err := ds.Grown(nil, nil, m.I, m.J)
		if err != nil {
			return nil, err
		}
		ds = grown
		train.Grow(m.I, m.J, train.DimK)
	}
	side, err := core.BuildSideInfo(ds.Social, ds.Distances(), train)
	if err != nil {
		return nil, err
	}
	side.Locs = ds.Locations()
	return &Recommender{
		Model: m, Dataset: ds, Gran: gran,
		Train: train, Test: test, Side: side, cfg: cfg,
	}, nil
}

// Evaluate runs the paper's ranking protocol (100 random negatives, Hit@10,
// per-user MRR) on the held-out check-ins.
func (r *Recommender) Evaluate() Result {
	return eval.Rank(scorer{r.Model}, r.Test, r.Train.DimJ, eval.DefaultConfig())
}

// EvaluateWith runs the protocol with a custom configuration.
func (r *Recommender) EvaluateWith(cfg eval.Config) Result {
	return eval.Rank(scorer{r.Model}, r.Test, r.Train.DimJ, cfg)
}

type scorer struct{ m *Model }

func (s scorer) Score(i, j, k int) float64 { return s.m.Score(i, j, k) }

// Score returns the model's score for user i visiting POI j in time unit k.
func (r *Recommender) Score(i, j, k int) float64 { return r.Model.Score(i, j, k) }

// Recommend returns the top-n POIs for a user at a time unit, excluding POIs
// the user already visited in the training data. The scoring path reuses
// pooled scratch buffers (core.RecScratch), so it is allocation-free apart
// from the returned slice and safe to call from many goroutines at once.
func (r *Recommender) Recommend(user, timeUnit, n int) []Recommendation {
	s, _ := r.scratch.Get().(*core.RecScratch)
	if s == nil {
		s = core.NewRecScratch(r.Model)
	}
	recs := r.Model.TopNScratch(user, timeUnit, n, r.Side.OwnPOIs[user], s)
	r.scratch.Put(s)
	return recs
}

// FriendPOIs returns the POIs the user's friends visited in training — the
// set N(v) the social Hausdorff head regularizes toward.
func (r *Recommender) FriendPOIs(user int) []int { return r.Side.FriendPOIs[user] }

// Explanation decomposes a recommendation into its social-spatial evidence.
type Explanation = core.Explanation

// Explain reports why the model scores (user, poi, timeUnit) the way it
// does: visit probability, peak time unit, friend visitation, distance to
// the nearest friend POI, and the location-entropy weight.
func (r *Recommender) Explain(user, poi, timeUnit int) Explanation {
	return r.Model.Explain(r.Side, user, poi, timeUnit)
}

// OnlineConfig controls incremental model updates.
type OnlineConfig = core.OnlineConfig

// DefaultOnlineConfig returns update hyperparameters matched to the default
// training configuration.
func DefaultOnlineConfig() OnlineConfig { return core.DefaultOnlineConfig() }

// GrowthHints carries warm-start information for rows appended by open-world
// growth (see core.GrowthHints). Set OnlineConfig.GrowHints to
// &GrowthHints{Random: true} to ablate warm initialization.
type GrowthHints = core.GrowthHints

// ErrObserveReverted is the sentinel wrapped by Observe when the update could
// not be applied atomically (the side-information rebuild failed after the
// factor update succeeded). The Recommender is left exactly as it was before
// the call — model, training tensor and side information all unchanged.
var ErrObserveReverted = errors.New("tcss: observe reverted, recommender unchanged")

// Observe folds new check-ins into the trained model without retraining from
// scratch: the check-ins are added to the training tensor and the affected
// user/POI factors are refined for a few epochs. Side information (friend
// sets, entropy weights) is rebuilt so future updates and explanations see
// the new data. It returns the number of genuinely new tensor cells.
//
// The update is transactional: it runs on private copies of the model and
// training tensor, and the Recommender's model, tensor and side information
// are swapped together only once every step has succeeded. On any error
// (wrapped ErrObserveReverted if the failure came after the factor update)
// the Recommender is untouched — there is no state where the model reflects
// the new check-ins but the side information does not. Because the swapped-in
// values are fresh objects, previously published references to Model/Side
// (e.g. a serving snapshot) remain valid and internally consistent.
func (r *Recommender) Observe(checkIns []lbsn.CheckIn, cfg OnlineConfig) (int, error) {
	entries := make([]tensor.Entry, len(checkIns))
	for n, c := range checkIns {
		entries[n] = tensor.Entry{I: c.User, J: c.POI, K: r.Gran.Index(c), Val: 1}
	}
	// Compact models (float32 / int8 storage) cannot take gradient updates
	// directly: widen to float64, update, then re-compact so the published
	// model keeps its storage mode. A float64 model skips both conversions.
	mode := r.Model.Mode
	model := r.Model.Decompress()
	if model == r.Model {
		model = model.Clone()
	}
	train := r.Train.Clone()
	added, err := model.UpdateOnline(train, entries, r.Side, cfg)
	if err != nil {
		return 0, err
	}
	if added == 0 {
		return 0, nil
	}
	side, err := core.BuildSideInfo(r.Dataset.Social, r.Dataset.Distances(), train)
	if err != nil {
		return 0, fmt.Errorf("%w: rebuilding side info: %v", ErrObserveReverted, err)
	}
	side.Locs = r.Dataset.Locations()
	model, err = model.ToStorage(mode)
	if err != nil {
		return 0, fmt.Errorf("%w: re-compacting model: %v", ErrObserveReverted, err)
	}
	r.Model, r.Train, r.Side = model, train, side
	r.Dataset.CheckIns = append(r.Dataset.CheckIns, checkIns...)
	return added, nil
}

// SaveModel persists the trained model parameters as JSON (format v4: exact
// float64 values inside a CRC32-C frame).
func (r *Recommender) SaveModel(path string) error { return r.Model.SaveFileVersioned(path, 0) }

// SaveModelBinary persists the model in the v5 binary slab format: CRC-framed
// little-endian factor slabs at 64-byte-aligned offsets, storage mode
// preserved, which OpenModel memory-maps instead of reading.
func (r *Recommender) SaveModelBinary(path string) error {
	return r.Model.SaveFileBinary(path, 0)
}

// ModelFile describes an opened model file: its format version, the snapshot
// generation recorded at save time (0 for offline saves; a serving restart
// passes it on so its counter keeps rising), the training state of a
// checkpoint, the path actually loaded, and whether the model aliases a
// memory mapping. Close it when the model is no longer in use.
type ModelFile = core.File

// OpenModel loads a model written by SaveModel, SaveModelBinary, a training
// checkpoint or a serving snapshot save, with crash recovery: when the newest
// file at path is missing, torn or corrupt it walks the rotation ladder
// (path.1, path.2, …) to the newest intact copy. The format is read from the
// file: a binary model is memory-mapped — restart cost is O(1) in model size
// and the OS pages factors in on first use — and is then read-only (scoring
// is safe, in-place mutation is not; Observe handles this by cloning) until
// the ModelFile is closed; a JSON model is an ordinary heap copy. The caller
// is responsible for pairing the model with the matching dataset.
func OpenModel(path string) (*Model, *ModelFile, error) { return core.Open(path) }
