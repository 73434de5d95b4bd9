// Package experiments reproduces every table and figure of the paper's
// evaluation section (§V) on the scaled synthetic presets. Each experiment
// has one runner returning a Table that prints the same rows/series the
// paper reports; bench_test.go at the repository root exposes one benchmark
// per experiment, and cmd/experiments runs them all.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"

	"tcss/internal/baselines"
	"tcss/internal/core"
	"tcss/internal/eval"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/tensor"
)

// Options scales every experiment. The defaults balance fidelity and
// runtime; Scale < 1 shrinks the presets proportionally for quick runs.
type Options struct {
	// Scale multiplies the preset user/POI counts (1 = full preset).
	Scale float64
	// Epochs for TCSS variants (0 = package default).
	Epochs int
	// BaselineEpochs for the neural/sequential baselines (0 = their default).
	BaselineEpochs int
	// UsersPerEpoch subsamples users in the TCSS social head (0 = all).
	UsersPerEpoch int
	// TrainFrac is the train split (paper: 0.8).
	TrainFrac float64
	// Seed drives dataset generation, splitting and training.
	Seed int64
}

// DefaultOptions returns the configuration used by the benchmark suite.
func DefaultOptions() Options {
	return Options{Scale: 1, Epochs: 200, BaselineEpochs: 6, UsersPerEpoch: 120, TrainFrac: 0.8, Seed: 7}
}

// QuickOptions returns a heavily scaled-down configuration for smoke tests.
func QuickOptions() Options {
	return Options{Scale: 0.2, Epochs: 8, BaselineEpochs: 3, UsersPerEpoch: 0, TrainFrac: 0.8, Seed: 7}
}

// Instance is one prepared dataset: the generated LBSN, its train/test split
// at a granularity, and the side information derived from the training data.
type Instance struct {
	Name   string
	DS     *lbsn.Dataset
	Gran   lbsn.Granularity
	Train  *tensor.COO
	Test   []tensor.Entry
	Side   *core.SideInfo
	Counts *tensor.COO // raw multiplicities of the training cells
}

// NewInstance builds an instance from a dataset at the given granularity.
func NewInstance(ds *lbsn.Dataset, gran lbsn.Granularity, trainFrac float64, seed int64) (*Instance, error) {
	full := ds.Tensor(gran)
	train, test := full.Split(trainFrac, rand.New(rand.NewSource(seed)))
	side, err := core.BuildSideInfo(ds.Social, ds.Distances(), train)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", ds.Name, err)
	}
	// Raw check-in multiplicities for the training cells, used by the
	// observed-only baselines (see baselines.Context.Counts).
	counts := tensor.NewCOO(train.DimI, train.DimJ, train.DimK)
	for _, c := range ds.CheckIns {
		k := gran.Index(c)
		if train.Has(c.User, c.POI, k) {
			counts.Add(c.User, c.POI, k, 1)
		}
	}
	return &Instance{Name: ds.Name, DS: ds, Gran: gran, Train: train, Test: test, Side: side, Counts: counts}, nil
}

// LoadPreset generates a preset dataset scaled by opts.Scale and prepares it
// at month granularity.
func LoadPreset(name string, opts Options) (*Instance, error) {
	cfg, err := lbsn.NewPreset(name, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Scale > 0 && opts.Scale != 1 {
		cfg.Users = scaleDim(cfg.Users, opts.Scale)
		cfg.POIs = scaleDim(cfg.POIs, opts.Scale)
	}
	ds, err := lbsn.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return NewInstance(ds, lbsn.Month, opts.TrainFrac, opts.Seed)
}

func scaleDim(v int, scale float64) int {
	s := int(float64(v) * scale)
	if s < 24 {
		s = 24
	}
	return s
}

// granularityInstances prepares the Gowalla preset at every granularity.
func granularityInstances(opts Options) ([]*Instance, error) {
	cfg, err := lbsn.NewPreset("gowalla", opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Scale > 0 && opts.Scale != 1 {
		cfg.Users = scaleDim(cfg.Users, opts.Scale)
		cfg.POIs = scaleDim(cfg.POIs, opts.Scale)
	}
	ds, err := lbsn.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var out []*Instance
	for _, gran := range []lbsn.Granularity{lbsn.Month, lbsn.Week, lbsn.Hour} {
		inst, err := NewInstance(ds, gran, opts.TrainFrac, opts.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// AllPresets loads the four paper datasets.
func AllPresets(opts Options) ([]*Instance, error) {
	var out []*Instance
	for _, name := range lbsn.PresetNames() {
		inst, err := LoadPreset(name, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// TCSSConfig returns the paper-default TCSS configuration adjusted by opts.
func TCSSConfig(opts Options) core.Config {
	cfg := core.DefaultConfig()
	if opts.Epochs > 0 {
		cfg.Epochs = opts.Epochs
	}
	cfg.UsersPerEpoch = opts.UsersPerEpoch
	cfg.Seed = opts.Seed
	return cfg
}

// FitTCSS trains TCSS on an instance with the given configuration.
func FitTCSS(inst *Instance, cfg core.Config) (*core.Model, error) {
	return core.Train(inst.Train, inst.Side, cfg)
}

// modelScorer adapts a core model to the eval interface.
type modelScorer struct{ m *core.Model }

func (s modelScorer) Score(i, j, k int) float64 { return s.m.Score(i, j, k) }

// Evaluate runs the paper's ranking protocol on a scorer.
func Evaluate(s eval.Scorer, inst *Instance) eval.Result {
	return eval.Rank(s, inst.Test, inst.Train.DimJ, eval.DefaultConfig())
}

// EvaluateTCSS trains and evaluates TCSS in one step.
func EvaluateTCSS(inst *Instance, cfg core.Config) (eval.Result, *core.Model, error) {
	m, err := FitTCSS(inst, cfg)
	if err != nil {
		return eval.Result{}, nil, err
	}
	return Evaluate(modelScorer{m}, inst), m, nil
}

// BaselineContext builds the fit context a baseline needs from an instance.
func BaselineContext(inst *Instance, opts Options) *baselines.Context {
	return &baselines.Context{
		Train:  inst.Train,
		Counts: inst.Counts,
		Social: inst.DS.Social,
		Dist:   inst.DS.Distances(),
		Rank:   10,
		Epochs: opts.BaselineEpochs,
		Seed:   opts.Seed,
	}
}

// EvaluateBaseline fits and evaluates one baseline on an instance.
func EvaluateBaseline(r baselines.Recommender, inst *Instance, opts Options) (eval.Result, error) {
	if err := r.Fit(BaselineContext(inst, opts)); err != nil {
		return eval.Result{}, fmt.Errorf("experiments: %s on %s: %w", r.Name(), inst.Name, err)
	}
	return Evaluate(r, inst), nil
}

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// simToSlices converts a similarity matrix to [][]float64 for printing and
// the block summary.
func simToSlices(m interface {
	At(i, j int) float64
}, k int) [][]float64 {
	out := make([][]float64, k)
	for a := 0; a < k; a++ {
		out[a] = make([]float64, k)
		for b := 0; b < k; b++ {
			out[a][b] = m.At(a, b)
		}
	}
	return out
}

// topNLocations returns the coordinates of the scorer's top-n POIs for a
// user/time, used by the Figure 12 case study.
func topNLocations(s eval.Scorer, inst *Instance, user, timeUnit, n int) []geo.Point {
	ranked := eval.RankAll(s, user, timeUnit, inst.Train.DimJ)
	if n > len(ranked) {
		n = len(ranked)
	}
	pts := make([]geo.Point, n)
	locs := inst.DS.Locations()
	for idx := 0; idx < n; idx++ {
		pts[idx] = locs[ranked[idx]]
	}
	return pts
}
