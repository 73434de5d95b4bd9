package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) should panic")
		}
	}()
	New(0, 3)
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %g, want 5", got)
	}
	row := m.Row(1)
	row[0] = 7 // Row is a view.
	if got := m.At(1, 0); got != 7 {
		t.Fatalf("Row must alias the matrix; At(1,0) = %g, want 7", got)
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Random(4, 4, 1, rng)
	id := Identity(4)
	if !a.Mul(id).Equalf(a, 1e-15) || !id.Mul(a).Equalf(a, 1e-15) {
		t.Fatal("multiplication by identity must be a no-op")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(3, 5, 2, rng)
	if !a.T().T().Equalf(a, 0) {
		t.Fatal("transpose must be an involution")
	}
}

func TestMulAgainstManual(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if got := a.Mul(b); !got.Equalf(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulTAndTMulConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(4, 6, 1, rng)
	b := Random(5, 6, 1, rng)
	if !a.MulT(b).Equalf(a.Mul(b.T()), 1e-12) {
		t.Fatal("MulT(b) must equal Mul(b.T())")
	}
	c := Random(4, 3, 1, rng)
	if !a.TMul(c).Equalf(a.T().Mul(c), 1e-12) {
		t.Fatal("TMul(c) must equal T().Mul(c)")
	}
}

func TestGramSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Random(7, 4, 1, rng)
	g := a.Gram()
	if !g.Equalf(g.T(), 1e-12) {
		t.Fatal("Gram matrix must be symmetric")
	}
	gt := a.GramT()
	if !gt.Equalf(gt.T(), 1e-12) {
		t.Fatal("GramT matrix must be symmetric")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{4, 3, 2, 1})
	if got := a.Add(b); !got.Equalf(FromSlice(2, 2, []float64{5, 5, 5, 5}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); !got.Equalf(FromSlice(2, 2, []float64{-3, -1, 1, 3}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); !got.Equalf(FromSlice(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatalf("Scale = %v", got)
	}
	// Originals untouched.
	if a.At(0, 0) != 1 || b.At(0, 0) != 4 {
		t.Fatal("Add/Sub/Scale must not mutate inputs")
	}
}

func TestFrobNorm(t *testing.T) {
	a := FromSlice(1, 2, []float64{3, 4})
	if got := a.FrobNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("FrobNorm = %g, want 5", got)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(3, 4, 1, rng)
		b := Random(4, 2, 1, rng)
		return a.Mul(b).T().Equalf(b.T().Mul(a.T()), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: dot product is bilinear and symmetric.
func TestDotProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if math.Abs(Dot(a, b)-Dot(b, a)) > 1e-12 {
			return false
		}
		// Cauchy-Schwarz.
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeAndCosine(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 2}); got != 0 {
		t.Fatalf("orthogonal cosine = %g, want 0", got)
	}
	if got := CosineSimilarity([]float64{1, 1}, []float64{2, 2}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("parallel cosine = %g, want 1", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero-vector cosine = %g, want 0", got)
	}
}

func TestHadamard(t *testing.T) {
	a, b := []float64{1, 2, 3}, []float64{4, 5, 6}
	want := []float64{4, 10, 18}
	dst := make([]float64, 3)
	HadamardInto(dst, a, b)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("HadamardInto = %v, want %v", dst, want)
		}
	}
}

func TestAxpyScaleSum(t *testing.T) {
	y := []float64{7, 9}
	ScaleVec(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("ScaleVec = %v", y)
	}
}

func TestMaxAbsAndString(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, -7, 3, 2})
	if s := m.String(); len(s) == 0 {
		t.Fatal("empty String")
	}
	big := New(20, 20)
	if s := big.String(); len(s) == 0 {
		t.Fatal("large matrices must summarize, not be empty")
	}
}

func TestEqualfShapeMismatch(t *testing.T) {
	if New(2, 2).Equalf(New(2, 3), 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice length mismatch must panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestScaleInPlaceAndFill(t *testing.T) {
	m := FromSlice(1, 2, []float64{2, 4})
	m.Fill(9)
	if m.At(0, 1) != 9 {
		t.Fatal("Fill wrong")
	}
}

func TestAddRidgePanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRidge on non-square must panic")
		}
	}()
	New(2, 3).AddRidge(1)
}
