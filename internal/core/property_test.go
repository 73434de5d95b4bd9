package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcss/internal/geo"
	"tcss/internal/tensor"
)

// Property: with equal class weights and the negative set enumerating every
// unobserved cell exactly once, the negative-sampling loss coincides with
// the naive whole-data loss — the paper's observation that whole-data
// training is the exhaustive special case of negative sampling.
func TestNegSamplingWithAllNegativesEqualsWholeData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(3, 4, 2, 2, rng)
		x := randomBinaryCOO(3, 4, 2, 6, rng)
		var negatives []tensor.Entry
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				for k := 0; k < 2; k++ {
					if !x.Has(i, j, k) {
						negatives = append(negatives, tensor.Entry{I: i, J: j, K: k})
					}
				}
			}
		}
		const w = 0.4
		ns := m.NegSamplingLoss(x, negatives, w, w, nil)
		whole := m.NaiveWholeDataLoss(x, w, w, nil)
		return math.Abs(ns-whole) < 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the social Hausdorff loss is invariant under a longitude
// translation of all POIs (which preserves all pairwise Haversine
// distances at a fixed latitude).
func TestHausdorffTranslationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(2, 5, 3, 2, rng)
		base := make([]geo.Point, 5)
		for j := range base {
			base[j] = geo.Point{Lat: 10, Lon: float64(j) + rng.Float64()}
		}
		shift := rng.Float64() * 30
		shifted := make([]geo.Point, 5)
		for j, p := range base {
			shifted[j] = geo.Point{Lat: p.Lat, Lon: p.Lon + shift}
		}
		friends := [][]int{{1, 3}, {0, 4}}
		h1 := NewHausdorff(geo.NewDistanceMatrix(base), nil, friends)
		h2 := NewHausdorff(geo.NewDistanceMatrix(shifted), nil, friends)
		users := []int{0, 1}
		l1 := h1.Loss(m, users, nil)
		l2 := h2.Loss(m, users, nil)
		return math.Abs(l1-l2) < 1e-6*(1+math.Abs(l1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: training is deterministic — identical configuration and data
// produce an identical model.
func TestTrainDeterministic(t *testing.T) {
	fx := newTrainFixture(20)
	cfg := DefaultConfig()
	cfg.Epochs = 10
	cfg.Rank = 3
	cfg.UsersPerEpoch = 6
	cfg.Seed = 42
	a, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !equalf(a.U1, b.U1, 0) || !equalf(a.U2, b.U2, 0) || !equalf(a.U3, b.U3, 0) {
		t.Fatal("same seed must give identical factors")
	}
	for i := range a.H {
		if a.H[i] != b.H[i] {
			t.Fatal("same seed must give identical h")
		}
	}
}

// Property: the whole-data loss is non-negative whenever both class weights
// are (it is a weighted sum of squares), and zero for a model that exactly
// reproduces a tensor it can represent.
func TestWholeDataLossNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(3, 3, 2, 2, rng)
		x := randomBinaryCOO(3, 3, 2, 5, rng)
		return m.WholeDataLoss(x, 0.9, 0.1, nil) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	// Zero model on an empty tensor has exactly zero loss.
	m := NewModel(3, 3, 2, 2)
	empty := tensor.NewCOO(3, 3, 2)
	if got := m.WholeDataLoss(empty, 0.9, 0.1, nil); got != 0 {
		t.Fatalf("zero model, empty tensor: loss %g, want 0", got)
	}
}

// Property: VisitProbability is monotone in any single prediction — raising
// one month's score can only raise the all-time visit probability.
func TestVisitProbabilityMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(1, 1, 4, 1, rng)
		// Force predictions into (0, 1) so the clamp stays inactive.
		m.H[0] = 1
		m.U1.Set(0, 0, 1)
		m.U2.Set(0, 0, 1)
		for k := 0; k < 4; k++ {
			m.U3.Set(k, 0, rng.Float64()*0.8)
		}
		before := m.VisitProbability(0, 0)
		m.U3.Set(2, 0, m.U3.At(2, 0)+0.1)
		after := m.VisitProbability(0, 0)
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hausdorff loss decreases when the model assigns more probability
// to exactly the friend-visited POIs (the gradient direction is useful, not
// just correct).
func TestHausdorffRewardsFriendAlignment(t *testing.T) {
	pts := []geo.Point{
		{Lat: 0, Lon: 0}, {Lat: 0, Lon: 0.05},
		{Lat: 3, Lon: 3}, {Lat: 3, Lon: 3.05},
	}
	friends := [][]int{{0, 1}}
	h := NewHausdorff(geo.NewDistanceMatrix(pts), nil, friends)

	mk := func(weights []float64) *Model {
		m := NewModel(1, 4, 2, 1)
		m.U1.Set(0, 0, 1)
		m.H[0] = 1
		m.U3.Set(0, 0, 1)
		m.U3.Set(1, 0, 0)
		for j, w := range weights {
			m.U2.Set(j, 0, w)
		}
		return m
	}
	aligned := mk([]float64{0.9, 0.9, 0.05, 0.05})
	inverted := mk([]float64{0.05, 0.05, 0.9, 0.9})
	la := h.userLoss(aligned, 0, nil, newHausdorffScratch(aligned))
	li := h.userLoss(inverted, 0, nil, newHausdorffScratch(inverted))
	if la >= li {
		t.Fatalf("friend-aligned model must have lower loss: aligned %g vs inverted %g", la, li)
	}
}
