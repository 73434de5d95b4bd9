package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestThinSVDExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// Rank-3 matrix 12x8 built from factors; full-rank-3 SVD must
	// reconstruct it (near) exactly.
	u := RandomNormal(12, 3, 1, rng)
	v := RandomNormal(8, 3, 1, rng)
	a := u.MulT(v)
	svd, err := ThinSVD(a, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !svd.Reconstruct().Equalf(a, 1e-7) {
		t.Fatal("rank-3 SVD must reconstruct a rank-3 matrix")
	}
}

func TestThinSVDTallAndWide(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][2]int{{15, 6}, {6, 15}} {
		a := RandomNormal(dims[0], dims[1], 1, rng)
		k := 6
		svd, err := ThinSVD(a, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Factors orthonormal.
		if !svd.U.Gram().Equalf(Identity(k), 1e-7) {
			t.Fatalf("%v: U not orthonormal", dims)
		}
		if !svd.V.Gram().Equalf(Identity(k), 1e-7) {
			t.Fatalf("%v: V not orthonormal", dims)
		}
		// Full thin SVD reconstructs exactly.
		if !svd.Reconstruct().Equalf(a, 1e-7) {
			t.Fatalf("%v: full thin SVD must reconstruct", dims)
		}
		// Singular values non-negative descending.
		for i := 1; i < k; i++ {
			if svd.S[i] > svd.S[i-1]+1e-10 || svd.S[i] < -1e-12 {
				t.Fatalf("%v: singular values bad: %v", dims, svd.S)
			}
		}
	}
}

func TestThinSVDFrobeniusProperty(t *testing.T) {
	// Sum of squared singular values equals squared Frobenius norm.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 3+rng.Intn(6), 3+rng.Intn(6)
		a := RandomNormal(m, n, 1, rng)
		k := m
		if n < k {
			k = n
		}
		svd, err := ThinSVD(a, k, rng)
		if err != nil {
			return false
		}
		var ss float64
		for _, s := range svd.S {
			ss += s * s
		}
		fn := a.FrobNorm()
		return math.Abs(ss-fn*fn) < 1e-6*(1+fn*fn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestThinSVDBadRank(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := RandomNormal(4, 5, 1, rng)
	if _, err := ThinSVD(a, 0, rng); err == nil {
		t.Fatal("rank 0 must error")
	}
	if _, err := ThinSVD(a, 5, rng); err == nil {
		t.Fatal("rank beyond min(m,n) must error")
	}
}

func TestSoftThresholdSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := RandomNormal(8, 8, 1, rng)
	plain, err := ThinSVD(a, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	tau := plain.S[3] // threshold at the 4th singular value
	soft, err := SoftThresholdSVD(a, 8, tau, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range soft.S {
		want := plain.S[i] - tau
		if want < 0 {
			want = 0
		}
		if math.Abs(s-want) > 1e-8 {
			t.Fatalf("soft-thresholded S[%d] = %g, want %g", i, s, want)
		}
	}
}

func TestCholeskySolveKnown(t *testing.T) {
	// SPD matrix [[4,2],[2,3]]; solve against known answer.
	a := FromSlice(2, 2, []float64{4, 2, 2, 3})
	x, err := SolveSPD(a, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=10, 2x+3y=9 -> x=1.5, y=2.
	if math.Abs(x[0]-1.5) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("SolveSPD = %v, want [1.5 2]", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky of indefinite matrix must error")
	}
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Fatal("Cholesky of non-square must error")
	}
}

func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		b := RandomNormal(n, n, 1, rng)
		a := b.Gram().AddRidge(0.5) // guaranteed SPD
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x, err := SolveSPD(a, rhs)
		if err != nil {
			return false
		}
		back := a.Mul(FromSlice(n, 1, x))
		for i := range rhs {
			if math.Abs(back.Data[i]-rhs[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSPDMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	b := RandomNormal(4, 4, 1, rng)
	a := b.Gram().AddRidge(1)
	rhs := RandomNormal(4, 3, 1, rng)
	x, err := SolveSPDMatrix(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(x).Equalf(rhs, 1e-8) {
		t.Fatal("SolveSPDMatrix residual too large")
	}
	if _, err := SolveSPDMatrix(a, New(3, 2)); err == nil {
		t.Fatal("shape mismatch must error")
	}
}
