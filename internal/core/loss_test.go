package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcss/internal/tensor"
)

// randomModel builds a model with small random parameters.
func randomModel(i, j, k, r int, rng *rand.Rand) *Model {
	m := NewModel(i, j, k, r)
	for idx := range m.U1.Data {
		m.U1.Data[idx] = rng.NormFloat64() * 0.3
	}
	for idx := range m.U2.Data {
		m.U2.Data[idx] = rng.NormFloat64() * 0.3
	}
	for idx := range m.U3.Data {
		m.U3.Data[idx] = rng.NormFloat64() * 0.3
	}
	for idx := range m.H {
		m.H[idx] = 0.5 + rng.Float64()
	}
	return m
}

func randomBinaryCOO(i, j, k, nnz int, rng *rand.Rand) *tensor.COO {
	x := tensor.NewCOO(i, j, k)
	for n := 0; n < nnz; n++ {
		x.Set(rng.Intn(i), rng.Intn(j), rng.Intn(k), 1)
	}
	return x
}

func TestPredictMatchesCPWhenHIsOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomModel(3, 4, 2, 5, rng)
	for idx := range m.H {
		m.H[idx] = 1
	}
	got := m.Predict(1, 2, 0)
	want := tensor.CPValue(m.U1, m.U2, m.U3, nil, 1, 2, 0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Predict = %g, CP = %g", got, want)
	}
}

// The paper's Remark 1: the rewritten loss Eq (15) equals the naive Eq (14).
func TestRewrittenLossEqualsNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(5, 4, 3, 3, rng)
		x := randomBinaryCOO(5, 4, 3, 8, rng)
		wPos, wNeg := 0.5+rng.Float64()/2, rng.Float64()/4
		fast := m.WholeDataLoss(x, wPos, wNeg, nil)
		naive := m.NaiveWholeDataLoss(x, wPos, wNeg, nil)
		return math.Abs(fast-naive) < 1e-8*(1+math.Abs(naive))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The rewritten loss gradient must equal the naive gradient.
func TestRewrittenGradEqualsNaiveGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomModel(4, 5, 3, 3, rng)
	x := randomBinaryCOO(4, 5, 3, 7, rng)
	gFast, gNaive := NewGrads(m), NewGrads(m)
	m.WholeDataLoss(x, 0.99, 0.01, gFast)
	m.NaiveWholeDataLoss(x, 0.99, 0.01, gNaive)
	if !equalf(gFast.DU1, gNaive.DU1, 1e-9) ||
		!equalf(gFast.DU2, gNaive.DU2, 1e-9) ||
		!equalf(gFast.DU3, gNaive.DU3, 1e-9) {
		t.Fatal("factor gradients differ between rewritten and naive loss")
	}
	for i := range gFast.DH {
		if math.Abs(gFast.DH[i]-gNaive.DH[i]) > 1e-9 {
			t.Fatalf("dH[%d]: %g vs %g", i, gFast.DH[i], gNaive.DH[i])
		}
	}
}

// Numerical gradient check of the whole-data loss.
func TestWholeDataLossNumericalGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomModel(3, 4, 2, 2, rng)
	x := randomBinaryCOO(3, 4, 2, 5, rng)
	const wPos, wNeg = 0.9, 0.1
	loss := func() float64 { return m.WholeDataLoss(x, wPos, wNeg, nil) }
	grads := NewGrads(m)
	m.WholeDataLoss(x, wPos, wNeg, grads)

	check := func(name string, params []float64, analytic []float64) {
		t.Helper()
		const h = 1e-6
		for i := range params {
			orig := params[i]
			params[i] = orig + h
			fp := loss()
			params[i] = orig - h
			fm := loss()
			params[i] = orig
			numeric := (fp - fm) / (2 * h)
			if math.Abs(analytic[i]-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", name, i, analytic[i], numeric)
			}
		}
	}
	check("dU1", m.U1.Data, grads.DU1.Data)
	check("dU2", m.U2.Data, grads.DU2.Data)
	check("dU3", m.U3.Data, grads.DU3.Data)
	check("dH", m.H, grads.DH)
}

func TestNegSamplingLossNumericalGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomModel(3, 4, 2, 2, rng)
	x := randomBinaryCOO(3, 4, 2, 5, rng)
	negs, err := SampleNegatives(x, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	loss := func() float64 { return m.NegSamplingLoss(x, negs, 0.9, 0.1, nil) }
	grads := NewGrads(m)
	m.NegSamplingLoss(x, negs, 0.9, 0.1, grads)
	const h = 1e-6
	for i := range m.U1.Data {
		orig := m.U1.Data[i]
		m.U1.Data[i] = orig + h
		fp := loss()
		m.U1.Data[i] = orig - h
		fm := loss()
		m.U1.Data[i] = orig
		numeric := (fp - fm) / (2 * h)
		if math.Abs(grads.DU1.Data[i]-numeric) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("neg-sampling dU1[%d]: %g vs %g", i, grads.DU1.Data[i], numeric)
		}
	}
}

func TestSampleNegativesAvoidsPositives(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomBinaryCOO(4, 4, 2, 10, rng)
	negs, err := SampleNegatives(x, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(negs) != 50 {
		t.Fatalf("got %d negatives, want 50", len(negs))
	}
	for _, e := range negs {
		if x.Has(e.I, e.J, e.K) {
			t.Fatal("sampled a positive entry as negative")
		}
		if e.Val != 0 {
			t.Fatal("negative entry must have value 0")
		}
	}
}

func TestGradsAddZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomModel(2, 2, 2, 2, rng)
	a, b := NewGrads(m), NewGrads(m)
	a.DU1.Set(0, 0, 1)
	b.DU1.Set(0, 0, 2)
	b.DH[1] = 3
	a.Add(b)
	if a.DU1.At(0, 0) != 3 || a.DH[1] != 3 {
		t.Fatal("Grads.Add wrong")
	}
	a.Zero()
	if a.DU1.At(0, 0) != 0 || a.DH[1] != 0 {
		t.Fatal("Grads.Zero wrong")
	}
}

func TestRMSEMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewModel(3, 3, 2, 2)
	// Zero model: positive RMSE against target 1 is exactly 1, negative
	// RMSE is 0.
	x := randomBinaryCOO(3, 3, 2, 4, rng)
	if got := m.PositiveRMSE(x); math.Abs(got-1) > 1e-12 {
		t.Fatalf("PositiveRMSE of zero model = %g, want 1", got)
	}
	if got := m.NegativeRMSE(x, 10, rng); got != 0 {
		t.Fatalf("NegativeRMSE of zero model = %g, want 0", got)
	}
	empty := tensor.NewCOO(3, 3, 2)
	if got := m.PositiveRMSE(empty); got != 0 {
		t.Fatalf("PositiveRMSE on empty tensor = %g, want 0", got)
	}
}
