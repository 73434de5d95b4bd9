package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcss/internal/geo"
	"tcss/internal/mat"
)

func TestGeneralizedMeanLimits(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	// α = 1 is the arithmetic mean.
	if got := GeneralizedMean(xs, 1); math.Abs(got-3.75) > 1e-12 {
		t.Fatalf("arithmetic mean = %g, want 3.75", got)
	}
	// α = −1 is the harmonic mean: 4 / (1 + 1/2 + 1/4 + 1/8).
	want := 4.0 / (1 + 0.5 + 0.25 + 0.125)
	if got := GeneralizedMean(xs, -1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("harmonic mean = %g, want %g", got, want)
	}
	// α = 0 is the geometric mean.
	if got := GeneralizedMean(xs, 0); math.Abs(got-math.Sqrt(math.Sqrt(1*2*4*8))) > 1e-9 {
		t.Fatalf("geometric mean = %g", got)
	}
	// α → −∞ approaches min (the 1/n factor inside the power slows the
	// convergence to O(log(n)/|α|)).
	if got := GeneralizedMean(xs, -200); math.Abs(got-1) > 1e-2 {
		t.Fatalf("M_(-200) = %g, want ≈ min = 1", got)
	}
}

// Property: min ≤ M_α ≤ arithmetic mean for α ≤ 1, and M_α is monotone in
// its inputs.
func TestGeneralizedMeanProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		xs := make([]float64, n)
		mn, sum := math.Inf(1), 0.0
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*10
			if xs[i] < mn {
				mn = xs[i]
			}
			sum += xs[i]
		}
		alpha := -5 + rng.Float64()*5.9 // in [−5, 0.9]
		m := GeneralizedMean(xs, alpha)
		if m < mn-1e-9 || m > sum/float64(n)+1e-9 {
			return false
		}
		// Monotonicity: increasing one input cannot decrease M_α.
		xs2 := append([]float64(nil), xs...)
		xs2[0] += 1
		return GeneralizedMean(xs2, alpha) >= m-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// testHausdorffSetup builds a tiny geometry: 4 POIs on a line, 2 users.
func testHausdorffSetup(friendPOIs [][]int) *Hausdorff {
	pts := []geo.Point{
		{Lat: 0, Lon: 0},
		{Lat: 0, Lon: 0.1},
		{Lat: 0, Lon: 0.5},
		{Lat: 0, Lon: 1.0},
	}
	return NewHausdorff(geo.NewDistanceMatrix(pts), nil, friendPOIs)
}

func TestHausdorffSkipsUsersWithoutFriendsPOIs(t *testing.T) {
	h := testHausdorffSetup([][]int{{}, {0}})
	rng := rand.New(rand.NewSource(1))
	m := randomModel(2, 4, 3, 2, rng)
	if got := h.userLoss(m, 0, nil, newHausdorffScratch(m)); got != 0 {
		t.Fatalf("user without friend POIs must contribute 0, got %g", got)
	}
	if got := h.userLoss(m, 1, nil, newHausdorffScratch(m)); got <= 0 {
		t.Fatalf("user with friend POIs should have positive loss, got %g", got)
	}
}

func TestHausdorffNumericalGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomModel(2, 4, 3, 2, rng)
	// Keep raw predictions strictly inside (0, 1) so the clamp is inactive
	// and the numerical gradient is exact.
	for idx := range m.U1.Data {
		m.U1.Data[idx] = 0.2 + 0.3*rng.Float64()
	}
	for idx := range m.U2.Data {
		m.U2.Data[idx] = 0.2 + 0.3*rng.Float64()
	}
	for idx := range m.U3.Data {
		m.U3.Data[idx] = 0.2 + 0.3*rng.Float64()
	}
	for idx := range m.H {
		m.H[idx] = 0.5
	}
	h := testHausdorffSetup([][]int{{1, 2}, {0, 3}})
	h.EntropyW = []float64{1, 0.8, 0.6, 0.9}

	users := []int{0, 1}
	loss := func() float64 { return h.Loss(m, users, nil) }
	grads := NewGrads(m)
	h.Loss(m, users, grads)

	check := func(name string, params, analytic []float64) {
		t.Helper()
		const step = 1e-6
		for i := range params {
			orig := params[i]
			params[i] = orig + step
			fp := loss()
			params[i] = orig - step
			fm := loss()
			params[i] = orig
			numeric := (fp - fm) / (2 * step)
			if math.Abs(analytic[i]-numeric) > 1e-3*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", name, i, analytic[i], numeric)
			}
		}
	}
	check("dU1", m.U1.Data, grads.DU1.Data)
	check("dU2", m.U2.Data, grads.DU2.Data)
	check("dU3", m.U3.Data, grads.DU3.Data)
	check("dH", m.H, grads.DH)
}

// The paper's degenerate-case argument: with only term 2 present, pushing all
// p to 1 would minimize the loss; with only term 1, p = 0 would. The combined
// loss must penalize both extremes: a model predicting everything (p≈1 for
// far POIs) must score worse than one matching the friend POIs.
func TestHausdorffPenalizesExtremes(t *testing.T) {
	h := testHausdorffSetup([][]int{{0, 1}})
	K, r := 2, 1

	makeConst := func(v float64) *Model {
		m := NewModel(1, 4, K, r)
		for j := 0; j < 4; j++ {
			m.U2.Set(j, 0, 1)
		}
		m.U1.Set(0, 0, 1)
		for k := 0; k < K; k++ {
			m.U3.Set(k, 0, 1)
		}
		m.H[0] = v
		return m
	}
	// Model that only wants POIs 0 and 1 (the friend POIs, near each other).
	focused := makeConst(0)
	focused.H[0] = 1
	focused.U2.Set(2, 0, 0) // p≈0 for far POIs 2, 3
	focused.U2.Set(3, 0, 0)
	focused.U2.Set(0, 0, 0.9)
	focused.U2.Set(1, 0, 0.9)

	allOnes := makeConst(0.9)  // visits everything, including far POIs
	allZeros := makeConst(0.0) // visits nothing

	lf := h.userLoss(focused, 0, nil, newHausdorffScratch(focused))
	l1 := h.userLoss(allOnes, 0, nil, newHausdorffScratch(allOnes))
	l0 := h.userLoss(allZeros, 0, nil, newHausdorffScratch(allZeros))
	if !(lf < l1 && lf < l0) {
		t.Fatalf("focused model must beat extremes: focused=%g all-ones=%g all-zeros=%g", lf, l1, l0)
	}
}

func TestHausdorffParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomModel(8, 4, 3, 2, rng)
	friends := make([][]int, 8)
	for i := range friends {
		friends[i] = []int{i % 4, (i + 1) % 4}
	}
	h := testHausdorffSetup(friends)
	users := []int{0, 1, 2, 3, 4, 5, 6, 7}
	gSerial, gParallel := NewGrads(m), NewGrads(m)
	var serial float64
	for _, u := range users {
		serial += h.userLoss(m, u, gSerial, newHausdorffScratch(m))
	}
	parallel := h.Loss(m, users, gParallel)
	if math.Abs(serial-parallel) > 1e-9 {
		t.Fatalf("parallel loss %g != serial %g", parallel, serial)
	}
	if !equalf(gSerial.DU1, gParallel.DU1, 1e-9) || !equalf(gSerial.DU3, gParallel.DU3, 1e-9) {
		t.Fatal("parallel gradients differ from serial")
	}
}

func TestMinDistancesCached(t *testing.T) {
	h := testHausdorffSetup([][]int{{2, 3}})
	a := h.minDistances(0)
	b := h.minDistances(0)
	if &a[0] != &b[0] {
		t.Fatal("minDistances must return the cached slice")
	}
	// POI 2's nearest friend POI is itself: distance 0.
	if a[2] != 0 {
		t.Fatalf("minD[2] = %g, want 0", a[2])
	}
	// Distances inside the head are normalized by d_max.
	want := h.Dist.At(0, 2) / h.Dist.DMax
	if math.Abs(a[0]-want) > 1e-12 {
		t.Fatalf("minD[0] = %g, want d(0,2)/dmax = %g", a[0], want)
	}
}

func TestVisitProbability(t *testing.T) {
	m := NewModel(1, 1, 3, 1)
	m.U1.Set(0, 0, 1)
	m.U2.Set(0, 0, 1)
	m.H[0] = 1
	m.U3.Set(0, 0, 0.5)
	m.U3.Set(1, 0, 0.5)
	m.U3.Set(2, 0, 0)
	want := 1 - 0.5*0.5*1.0
	if got := m.VisitProbability(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("VisitProbability = %g, want %g", got, want)
	}
	// Out-of-range predictions are clamped: probability stays in [0, 1].
	m.U3.Set(0, 0, 5)
	if got := m.VisitProbability(0, 0); got < 0 || got > 1 {
		t.Fatalf("clamped probability out of range: %g", got)
	}
}

// GeneralizedMean computes M_α[x₁..x_n] = ((1/n)·Σ xᵢ^α)^(1/α), the smooth
// minimum surrogate of Eq (10). As α → −∞ it converges to min(x); the paper
// uses α = −1 as the balance between approximation quality and gradient
// smoothness; the Hausdorff head computes it inline. All inputs must be
// positive.
func GeneralizedMean(xs []float64, alpha float64) float64 {
	if len(xs) == 0 {
		panic("core: GeneralizedMean of empty slice")
	}
	if alpha == 0 {
		// Geometric mean, the α→0 limit.
		var s float64
		for _, x := range xs {
			s += math.Log(x)
		}
		return math.Exp(s / float64(len(xs)))
	}
	var s float64
	for _, x := range xs {
		s += math.Pow(x, alpha)
	}
	return math.Pow(s/float64(len(xs)), 1/alpha)
}

// equalf reports whether a and b have the same shape and every element
// differs by at most tol.
func equalf(a, b *mat.Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
