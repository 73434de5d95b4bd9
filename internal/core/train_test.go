package core

import (
	"math"
	"math/rand"
	"testing"

	"tcss/internal/eval"
	"tcss/internal/geo"
	"tcss/internal/graph"
	"tcss/internal/mat"
	"tcss/internal/tensor"
)

// trainFixture builds a small but structured problem: two user communities,
// each visiting its own geographic POI cluster, with in-community
// friendships. 16 users, 12 POIs, 4 time units.
type trainFixture struct {
	x      *tensor.COO
	test   []tensor.Entry
	side   *SideInfo
	social *graph.Graph
}

func newTrainFixture(seed int64) *trainFixture {
	rng := rand.New(rand.NewSource(seed))
	const I, J, K = 16, 12, 4
	pts := make([]geo.Point, J)
	for j := range pts {
		base := geo.Point{Lat: 30, Lon: -97}
		if j >= J/2 {
			base = geo.Point{Lat: 30.4, Lon: -97.5}
		}
		pts[j] = geo.Jitter(base, 0.01, rng)
	}
	social := graph.New(I)
	for u := 0; u < I; u++ {
		for v := u + 1; v < I; v++ {
			if (u < I/2) == (v < I/2) && rng.Float64() < 0.4 {
				social.AddEdge(u, v)
			}
		}
	}
	graph.EnsureMinDegree(social, 1, rng)

	full := tensor.NewCOO(I, J, K)
	for u := 0; u < I; u++ {
		lo, hi := 0, J/2
		if u >= I/2 {
			lo, hi = J/2, J
		}
		for n := 0; n < 10; n++ {
			j := lo + rng.Intn(hi-lo)
			// Community-specific time preference.
			k := rng.Intn(2)
			if u >= I/2 {
				k = 2 + rng.Intn(2)
			}
			full.Set(u, j, k, 1)
		}
	}
	train, test := full.Split(0.8, rng)
	side, err := BuildSideInfo(social, geo.NewDistanceMatrix(pts), train)
	if err != nil {
		panic(err)
	}
	return &trainFixture{x: train, test: test, side: side, social: social}
}

func TestSpectralInitProperties(t *testing.T) {
	fx := newTrainFixture(1)
	m := NewModel(fx.x.DimI, fx.x.DimJ, fx.x.DimK, 3)
	rng := rand.New(rand.NewSource(1))
	if err := m.Initialize(SpectralInit, fx.x, rng); err != nil {
		t.Fatal(err)
	}
	// h starts at all ones (the CP special case).
	for _, h := range m.H {
		if h != 1 {
			t.Fatal("h must initialize to ones")
		}
	}
	// Factors must be non-degenerate and finite.
	for _, u := range []*mat.Matrix{m.U1, m.U2, m.U3} {
		if u.FrobNorm() == 0 {
			t.Fatal("spectral init produced a zero factor")
		}
		for _, v := range u.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("spectral init produced a non-finite value")
			}
		}
	}
	// Column means oriented non-negative.
	for tcol := 0; tcol < 3; tcol++ {
		var mean float64
		for i := 0; i < m.U1.Rows; i++ {
			mean += m.U1.At(i, tcol)
		}
		if mean < 0 {
			t.Fatal("spectral columns must be oriented with non-negative mean")
		}
	}
}

func TestSpectralInitDimMismatch(t *testing.T) {
	fx := newTrainFixture(2)
	m := NewModel(fx.x.DimI+1, fx.x.DimJ, fx.x.DimK, 3)
	if err := m.Initialize(SpectralInit, fx.x, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestInitMethodsDiffer(t *testing.T) {
	fx := newTrainFixture(3)
	rng := rand.New(rand.NewSource(1))
	a := NewModel(fx.x.DimI, fx.x.DimJ, fx.x.DimK, 3)
	b := NewModel(fx.x.DimI, fx.x.DimJ, fx.x.DimK, 3)
	if err := a.Initialize(RandomInit, fx.x, rng); err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(OneHotInit, fx.x, rng); err != nil {
		t.Fatal(err)
	}
	if equalf(a.U1, b.U1, 1e-9) {
		t.Fatal("random and one-hot init should differ")
	}
	// One-hot rows have a dominant coordinate at i mod r.
	for i := 0; i < b.U1.Rows; i++ {
		if b.U1.At(i, i%3) < 0.5 {
			t.Fatalf("one-hot row %d lacks its unit spike", i)
		}
	}
}

func TestTrainLossDecreases(t *testing.T) {
	fx := newTrainFixture(4)
	cfg := DefaultConfig()
	cfg.Epochs = 25
	cfg.Rank = 3
	cfg.Seed = 1
	var losses []float64
	cfg.EpochCallback = func(epoch int, m *Model, loss float64) { losses = append(losses, loss) }
	if _, err := Train(fx.x, fx.side, cfg); err != nil {
		t.Fatal(err)
	}
	if len(losses) != cfg.Epochs {
		t.Fatalf("callback fired %d times, want %d", len(losses), cfg.Epochs)
	}
	first, last := losses[0], losses[len(losses)-1]
	if !(last < first) {
		t.Fatalf("training loss did not decrease: first=%g last=%g", first, last)
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatal("training loss went non-finite")
		}
	}
}

func TestTrainedModelBeatsUntrained(t *testing.T) {
	fx := newTrainFixture(5)
	cfg := DefaultConfig()
	cfg.Epochs = 40
	cfg.Rank = 4
	cfg.Seed = 2
	m, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := eval.Config{Negatives: 11, TopK: 3, Seed: 7}
	trained := eval.Rank(scorer{m}, fx.test, fx.x.DimJ, ecfg)

	untrained := NewModel(fx.x.DimI, fx.x.DimJ, fx.x.DimK, 4)
	rng := rand.New(rand.NewSource(3))
	if err := untrained.Initialize(RandomInit, fx.x, rng); err != nil {
		t.Fatal(err)
	}
	random := eval.Rank(scorer{untrained}, fx.test, fx.x.DimJ, ecfg)
	if trained.MRR <= random.MRR {
		t.Fatalf("trained MRR %g must beat untrained %g", trained.MRR, random.MRR)
	}
}

type scorer struct{ m *Model }

func (s scorer) Score(i, j, k int) float64 { return s.m.Score(i, j, k) }

func TestTrainVariants(t *testing.T) {
	fx := newTrainFixture(6)
	for _, variant := range []HausdorffVariant{SocialHausdorff, SelfHausdorff, NoHausdorff, ZeroOut} {
		cfg := DefaultConfig()
		cfg.Epochs = 5
		cfg.Rank = 3
		cfg.Variant = variant
		m, err := Train(fx.x, fx.side, cfg)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if variant == ZeroOut {
			if m.ZeroOutFilter == nil {
				t.Fatal("zero-out variant must build a filter")
			}
		} else if m.ZeroOutFilter != nil {
			t.Fatalf("%v must not build a filter", variant)
		}
	}
}

func TestTrainNegSamplingVariant(t *testing.T) {
	fx := newTrainFixture(7)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	cfg.Rank = 3
	cfg.NegSampling = true
	if _, err := Train(fx.x, fx.side, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTrainUserSubsampling(t *testing.T) {
	fx := newTrainFixture(8)
	cfg := DefaultConfig()
	cfg.Epochs = 8
	cfg.Rank = 3
	cfg.UsersPerEpoch = 4
	var losses []float64
	cfg.EpochCallback = func(_ int, _ *Model, loss float64) { losses = append(losses, loss) }
	if _, err := Train(fx.x, fx.side, cfg); err != nil {
		t.Fatal(err)
	}
	for _, l := range losses {
		if math.IsNaN(l) {
			t.Fatal("subsampled training produced NaN loss")
		}
	}
}

func TestTrainConfigValidation(t *testing.T) {
	fx := newTrainFixture(9)
	bad := []func(*Config){
		func(c *Config) { c.Rank = 0 },
		func(c *Config) { c.Epochs = -1 },
		func(c *Config) { c.WPos = 0 },
		func(c *Config) { c.Lambda = -1 },
		func(c *Config) { c.NegSampling = true; c.NegPerPos = 0 },
	}
	for n, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := Train(fx.x, fx.side, cfg); err == nil {
			t.Fatalf("bad config %d must be rejected", n)
		}
	}
	// Side info required for social variants.
	cfg := DefaultConfig()
	cfg.Epochs = 1
	if _, err := Train(fx.x, nil, cfg); err == nil {
		t.Fatal("nil side info must be rejected for the social variant")
	}
}

func TestZeroOutFilterSemantics(t *testing.T) {
	fx := newTrainFixture(10)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	cfg.Rank = 3
	cfg.Variant = ZeroOut
	cfg.ZeroOutSigmaFrac = 0.05
	m, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sigma := 0.05 * fx.side.Dist.DMax
	for i := 0; i < m.I; i++ {
		own := fx.side.OwnPOIs[i]
		for j := 0; j < m.J; j++ {
			want := len(own) == 0
			if !want {
				_, d := fx.side.Dist.Nearest(j, own)
				want = d <= sigma
			}
			if m.ZeroOutFilter[i][j] != want {
				t.Fatalf("filter[%d][%d] = %v, want %v", i, j, m.ZeroOutFilter[i][j], want)
			}
			if !m.ZeroOutFilter[i][j] && !math.IsInf(m.Score(i, j, 0), -1) {
				t.Fatal("filtered POI must score -inf")
			}
		}
	}
}

func TestTopNRespectsSkipAndFilter(t *testing.T) {
	m := NewModel(1, 5, 1, 1)
	for j := 0; j < 5; j++ {
		m.U2.Set(j, 0, float64(j))
	}
	m.U1.Set(0, 0, 1)
	m.U3.Set(0, 0, 1)
	m.H[0] = 1
	recs := m.TopN(0, 0, 3, map[int]bool{4: true})
	if len(recs) != 3 || recs[0].POI != 3 {
		t.Fatalf("TopN = %+v, want best POI 3 after skipping 4", recs)
	}
	m.ZeroOutFilter = [][]bool{{true, true, false, false, false}}
	recs = m.TopN(0, 0, 3, nil)
	if len(recs) != 2 || recs[0].POI != 1 {
		t.Fatalf("filtered TopN = %+v", recs)
	}
}

func TestSideInfoContents(t *testing.T) {
	fx := newTrainFixture(11)
	side := fx.side
	// Entropy weights in (0, 1].
	for j, w := range side.EntropyW {
		if w <= 0 || w > 1 {
			t.Fatalf("entropy weight[%d] = %g out of (0,1]", j, w)
		}
	}
	// Friend sets are unions of friends' own sets.
	for v := 0; v < fx.x.DimI; v++ {
		want := make(map[int]bool)
		for _, f := range fx.social.Neighbors(v) {
			for _, j := range side.OwnPOIs[f] {
				want[j] = true
			}
		}
		if len(want) != len(side.FriendPOIs[v]) {
			t.Fatalf("user %d friend set size %d, want %d", v, len(side.FriendPOIs[v]), len(want))
		}
	}
	// Mismatched dims must error.
	if _, err := BuildSideInfo(graph.New(3), side.Dist, fx.x); err == nil {
		t.Fatal("user-count mismatch must error")
	}
}

func TestModelCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomModel(3, 3, 2, 2, rng)
	c := m.Clone()
	c.U1.Set(0, 0, 99)
	c.H[0] = 99
	if m.U1.At(0, 0) == 99 || m.H[0] == 99 {
		t.Fatal("Clone must deep-copy parameters")
	}
}

func TestTimeFactorSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomModel(2, 2, 4, 3, rng)
	sim := m.TimeFactorSimilarity()
	for k := 0; k < 4; k++ {
		if math.Abs(sim.At(k, k)-1) > 1e-9 {
			t.Fatalf("self-similarity = %g, want 1", sim.At(k, k))
		}
	}
	if !equalf(sim, sim.T(), 1e-12) {
		t.Fatal("similarity matrix must be symmetric")
	}
}

func TestTimeScores(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randomModel(2, 2, 5, 2, rng)
	s := m.TimeScores(1, 1)
	if len(s) != 5 {
		t.Fatalf("TimeScores length %d", len(s))
	}
	for k, v := range s {
		if v != m.Predict(1, 1, k) {
			t.Fatal("TimeScores must match Predict")
		}
	}
}
