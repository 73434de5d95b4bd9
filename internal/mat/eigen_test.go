package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSymmetric builds a random symmetric n-by-n matrix.
func randomSymmetric(n int, rng *rand.Rand) *Matrix {
	a := RandomNormal(n, n, 1, rng)
	s := a.T()
	s.AddInPlace(a)
	return s.Scale(0.5)
}

func TestSymEigenDiagonal(t *testing.T) {
	a := FromSlice(3, 3, []float64{
		3, 0, 0,
		0, 1, 0,
		0, 0, 2,
	})
	res, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, v := range want {
		if math.Abs(res.Values[i]-v) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", res.Values, want)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromSlice(2, 2, []float64{2, 1, 1, 2})
	res, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]-3) > 1e-10 || math.Abs(res.Values[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [3 1]", res.Values)
	}
}

func TestSymEigenResidualAndOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{2, 5, 12, 30} {
		a := randomSymmetric(n, rng)
		res, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// A·V = V·diag(values).
		av := a.Mul(res.Vectors)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				want := res.Vectors.At(i, j) * res.Values[j]
				if math.Abs(av.At(i, j)-want) > 1e-8 {
					t.Fatalf("n=%d residual at (%d,%d): %g vs %g", n, i, j, av.At(i, j), want)
				}
			}
		}
		// VᵀV = I.
		if !res.Vectors.Gram().Equalf(Identity(n), 1e-8) {
			t.Fatalf("n=%d eigenvectors not orthonormal", n)
		}
		// Values sorted descending.
		for i := 1; i < n; i++ {
			if res.Values[i] > res.Values[i-1]+1e-12 {
				t.Fatalf("n=%d eigenvalues not sorted: %v", n, res.Values)
			}
		}
	}
}

func TestSymEigenTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randomSymmetric(n, rng)
		res, err := SymEigen(a)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += res.Values[i]
		}
		return math.Abs(trace-sum) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(New(2, 3)); err == nil {
		t.Fatal("SymEigen of non-square must error")
	}
}

func TestTopEigenvectorsMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, r := 40, 4
	// PSD matrix with a clear spectral gap: B·Bᵀ with B 40x8.
	b := RandomNormal(n, 8, 1, rng)
	a := b.GramT()
	full, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	top, err := TopEigenvectors(nonzeroRows(a), r, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r; i++ {
		if math.Abs(top.Values[i]-full.Values[i]) > 1e-6*(1+full.Values[0]) {
			t.Fatalf("leading eigenvalue %d: %g vs Jacobi %g", i, top.Values[i], full.Values[i])
		}
		// Eigenvectors agree up to sign.
		var dot float64
		for k := 0; k < n; k++ {
			dot += top.Vectors.At(k, i) * full.Vectors.At(k, i)
		}
		if math.Abs(math.Abs(dot)-1) > 1e-5 {
			t.Fatalf("eigenvector %d misaligned: |dot| = %g", i, math.Abs(dot))
		}
	}
}

func TestTopEigenvectorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSymmetric(60, rng)
	res, err := TopEigenvectors(nonzeroRows(a), 5, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vectors.Gram().Equalf(Identity(5), 1e-8) {
		t.Fatal("TopEigenvectors basis must be orthonormal")
	}
}

func TestTopEigenvectorsBadRank(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSymmetric(4, rng)
	if _, err := TopEigenvectors(nonzeroRows(a), 0, 10, rng); err == nil {
		t.Fatal("rank 0 must error")
	}
	if _, err := TopEigenvectors(nonzeroRows(a), 5, 10, rng); err == nil {
		t.Fatal("rank > n must error")
	}
	if _, err := TopEigenvectors(nonzeroRows(New(2, 3)), 1, 10, rng); err == nil {
		t.Fatal("non-square must error")
	}
}

// FuzzTopEigenvectors: on any small symmetric matrix the solver returns
// finite eigenpairs and an orthonormal basis. Byte 0 picks n ≤ 16, byte 1
// the rank r ≤ n and byte 2 the shape: a general symmetric matrix, u·uᵀ,
// u·uᵀ + w·wᵀ or u·uᵀ − w·wᵀ, where the low-rank shapes make the power
// step annihilate basis vectors. The entries are the remaining bytes as
// int8s, repeated cyclically.
func FuzzTopEigenvectors(f *testing.F) {
	f.Add([]byte{15, 3, 1, 1, 2, 3}) // 16×16, r = 4: a_ij = (i mod 3 + 1)(j mod 3 + 1)
	f.Add([]byte{9, 2, 0, 7, 250, 3, 0, 1})
	f.Add([]byte{11, 5, 2, 1, 2, 3, 255, 0, 4})
	f.Add([]byte{5, 5, 3, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%16
		r := 1 + int(data[1])%n
		shape := data[2] % 4
		rest := data[3:]
		val := func(k int) float64 {
			if len(rest) == 0 {
				return 0
			}
			return float64(int8(rest[k%len(rest)]))
		}
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var v float64
				switch shape {
				case 0:
					v = val(min(i, j)*n + max(i, j))
				case 1:
					v = val(i) * val(j)
				case 2:
					v = val(i)*val(j) + val(n+i)*val(n+j)
				case 3:
					v = val(i)*val(j) - val(n+i)*val(n+j)
				}
				a.Set(i, j, v)
			}
		}
		res, err := TopEigenvectors(nonzeroRows(a), r, 300, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range append(append([]float64(nil), res.Values...), res.Vectors.Data...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite output on %v", a)
			}
		}
		if g := res.Vectors.Gram(); !g.Equalf(Identity(r), 1e-9*float64(n)) {
			t.Fatalf("VᵀV = %v, want I (a = %v)", g, a)
		}
	})
}

func TestQROrthonormalizeDegenerate(t *testing.T) {
	// Two identical vectors (one per row): the second must be replaced,
	// keeping full rank. In the second case the first substitute, e_1,
	// overlaps the first vector and must be orthogonalized against it.
	s := 1 / math.Sqrt2
	for _, data := range [][]float64{
		{1, 0, 0, 1, 0, 0},
		{s, s, 0, s, s, 0},
	} {
		q := FromSlice(2, 3, data)
		qrOrthonormalize(q)
		if !q.GramT().Equalf(Identity(2), 1e-10) {
			t.Fatalf("degenerate vectors must still produce an orthonormal basis, got %v", q.GramT())
		}
	}
}

// TestTopEigenvectorsRankOne: on a rank-1 matrix every basis vector but the
// first vanishes under the power step, and the substitutes must still come
// out orthonormal.
func TestTopEigenvectorsRankOne(t *testing.T) {
	const n = 80
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64((i%3+1)*(j%3+1)))
		}
	}
	res, err := TopEigenvectors(nonzeroRows(a), 4, 300, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Vectors.Gram(); !g.Equalf(Identity(4), 1e-9) {
		t.Fatalf("VᵀV = %v, want I", g)
	}
	// The one nonzero eigenvalue is ‖u‖² for u_i = i mod 3 + 1.
	var want float64
	for i := 0; i < n; i++ {
		want += float64((i%3 + 1) * (i%3 + 1))
	}
	if math.Abs(res.Values[0]-want) > 1e-9*want {
		t.Fatalf("leading eigenvalue %g, want %g", res.Values[0], want)
	}
}
