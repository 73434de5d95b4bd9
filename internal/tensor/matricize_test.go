package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcss/internal/mat"
)

func randomCOO(dimI, dimJ, dimK, nnz int, rng *rand.Rand) *COO {
	x := NewCOO(dimI, dimJ, dimK)
	for n := 0; n < nnz; n++ {
		x.Set(rng.Intn(dimI), rng.Intn(dimJ), rng.Intn(dimK), rng.NormFloat64())
	}
	return x
}

func TestMatricizeLayout(t *testing.T) {
	x := NewCOO(2, 3, 4)
	x.Set(1, 2, 3, 7)
	a := x.Matricize(ModeUser)
	if a.Rows != 2 || a.Cols != 12 || a.At(1, 2*4+3) != 7 {
		t.Fatalf("mode-1 unfolding wrong: %dx%d", a.Rows, a.Cols)
	}
	b := x.Matricize(ModePOI)
	if b.Rows != 3 || b.Cols != 8 || b.At(2, 1*4+3) != 7 {
		t.Fatalf("mode-2 unfolding wrong: %dx%d", b.Rows, b.Cols)
	}
	c := x.Matricize(ModeTime)
	if c.Rows != 4 || c.Cols != 6 || c.At(3, 1*3+2) != 7 {
		t.Fatalf("mode-3 unfolding wrong: %dx%d", c.Rows, c.Cols)
	}
}

// Property: every unfolding preserves the multiset of values, hence the norm.
func TestMatricizeNormPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomCOO(4, 5, 3, 20, rng)
		want := math.Sqrt(x.FrobNormSq())
		for _, mode := range []Mode{ModeUser, ModePOI, ModeTime} {
			if math.Abs(x.Matricize(mode).FrobNorm()-want) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sparse Gram-of-unfolding equals the dense M·Mᵀ.
func TestGramOfUnfoldingMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomCOO(5, 4, 3, 25, rng)
		for _, mode := range []Mode{ModeUser, ModePOI, ModeTime} {
			m := x.Matricize(mode)
			if !x.GramOfUnfolding(mode).Equalf(m.GramT(), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestGramOfUnfoldingReproducible: with fractional values the fiber sums
// are order-sensitive at the ulp level, so every rebuild must add the fibers
// in the same order to come out bit-equal.
func TestGramOfUnfoldingReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := NewCOO(50, 80, 12)
	for n := 0; n < 2000; n++ {
		x.Set(rng.Intn(50), rng.Intn(80), rng.Intn(12), rng.Float64())
	}
	for _, mode := range []Mode{ModeUser, ModePOI, ModeTime} {
		first := x.GramOfUnfolding(mode)
		for rebuild := 0; rebuild < 20; rebuild++ {
			var differ int
			for i, v := range x.GramOfUnfolding(mode).Data {
				if math.Float64bits(v) != math.Float64bits(first.Data[i]) {
					differ++
				}
			}
			if differ > 0 {
				t.Fatalf("mode %d rebuild %d: %d cells differ from the first build", mode, rebuild, differ)
			}
		}
	}
}

func TestKhatriRaoKnown(t *testing.T) {
	a := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := mat.FromSlice(2, 2, []float64{5, 6, 7, 8})
	kr := KhatriRao(a, b)
	want := mat.FromSlice(4, 2, []float64{
		1 * 5, 2 * 6,
		1 * 7, 2 * 8,
		3 * 5, 4 * 6,
		3 * 7, 4 * 8,
	})
	if !kr.Equalf(want, 0) {
		t.Fatalf("KhatriRao = %v, want %v", kr, want)
	}
}

// Property: MTTKRP from sparse entries equals the dense definition
// X_(n) · (KhatriRao of the other two factors), for each mode.
func TestMTTKRPMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dimI, dimJ, dimK, r := 4, 5, 3, 2
		x := randomCOO(dimI, dimJ, dimK, 18, rng)
		u1 := mat.RandomNormal(dimI, r, 1, rng)
		u2 := mat.RandomNormal(dimJ, r, 1, rng)
		u3 := mat.RandomNormal(dimK, r, 1, rng)

		// Mode 1: A_(1) is I×(JK) with column j*K+k, so the matching
		// Khatri-Rao has the J index varying slowest: U2 ⊙ U3.
		m1 := x.MTTKRP(ModeUser, u1, u2, u3)
		d1 := x.Matricize(ModeUser).Mul(KhatriRao(u2, u3))
		if !m1.Equalf(d1, 1e-9) {
			return false
		}
		m2 := x.MTTKRP(ModePOI, u1, u2, u3)
		d2 := x.Matricize(ModePOI).Mul(KhatriRao(u1, u3))
		if !m2.Equalf(d2, 1e-9) {
			return false
		}
		m3 := x.MTTKRP(ModeTime, u1, u2, u3)
		d3 := x.Matricize(ModeTime).Mul(KhatriRao(u1, u2))
		return m3.Equalf(d3, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCPValue(t *testing.T) {
	u1 := mat.FromSlice(1, 2, []float64{2, 3})
	u2 := mat.FromSlice(1, 2, []float64{5, 7})
	u3 := mat.FromSlice(1, 2, []float64{11, 13})
	if got := CPValue(u1, u2, u3, nil, 0, 0, 0); got != 2*5*11+3*7*13 {
		t.Fatalf("CPValue = %g", got)
	}
	h := []float64{0.5, 2}
	if got := CPValue(u1, u2, u3, h, 0, 0, 0); got != 0.5*2*5*11+2*3*7*13 {
		t.Fatalf("weighted CPValue = %g", got)
	}
}
