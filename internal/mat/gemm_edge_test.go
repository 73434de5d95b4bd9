package mat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMul is the reference triple loop Mul is checked against.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// TestGEMMShapeEdgeCases sweeps Mul over degenerate and 64-straddling
// shapes: single rows/columns, extreme aspect ratios, inner
// dimension 1, and sizes just past a 64-wide tile edge.
func TestGEMMShapeEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"1x1x1", 1, 1, 1},
		{"row-vector", 1, 7, 5},
		{"col-vector", 6, 3, 1},
		{"inner-1", 4, 1, 5},
		{"tall-skinny", 33, 2, 3},
		{"short-fat", 2, 3, 41},
		{"block-edge", 64, 64, 64},
		{"block-straddle", 65, 3, 70},
		{"block-straddle-inner", 10, 65, 9},
	}
	const tol = 1e-12
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			a := Random(sh.m, sh.k, 1, rng)
			b := Random(sh.k, sh.n, 1, rng)
			want := naiveMul(a, b)

			if got := a.Mul(b); !got.Equalf(want, tol) {
				t.Fatal("Mul deviates from naive reference")
			}
		})
	}
}

// TestMulDiagTSliceMatchesNaive checks the slab-scoring primitive
// out = a·diag(w)·bᵀ cell-by-cell, including rank lengths around the
// four-accumulator unroll boundary (1..9 covers remainders 0..3).
func TestMulDiagTSliceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for r := 1; r <= 9; r++ {
		a := Random(5, r, 1, rng)
		b := Random(4, r, 1, rng)
		w := make([]float64, r)
		for i := range w {
			w[i] = rng.Float64()*2 - 1
		}
		out := make([]float64, 5*4)
		MulDiagTSlice(out, a, w, b, make([]float64, r))
		for i := 0; i < 5; i++ {
			for j := 0; j < 4; j++ {
				var want float64
				for tt := 0; tt < r; tt++ {
					want += a.At(i, tt) * w[tt] * b.At(j, tt)
				}
				if math.Abs(out[i*4+j]-want) > 1e-12 {
					t.Fatalf("rank %d: out[%d,%d] = %g, want %g", r, i, j, out[i*4+j], want)
				}
			}
		}
	}
}

// TestGEMMPanicsOnBadShapes pins the error behaviour: zero or negative
// dimensions are rejected at construction, and mismatched operands panic with
// a shape message rather than corrupting memory.
func TestGEMMPanicsOnBadShapes(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("New(0,3)", func() { New(0, 3) })
	mustPanic("New(3,0)", func() { New(3, 0) })
	mustPanic("New(-1,2)", func() { New(-1, 2) })
	a23 := New(2, 3)
	mustPanic("Mul inner mismatch", func() { a23.Mul(a23) })
	mustPanic("MulDiagTSlice bad scratch", func() {
		MulDiagTSlice(make([]float64, 4), New(2, 3), make([]float64, 3), New(2, 3), make([]float64, 2))
	})
	mustPanic("MulDiagTSlice bad out", func() {
		MulDiagTSlice(make([]float64, 3), New(2, 3), make([]float64, 3), New(2, 3), make([]float64, 3))
	})
	mustPanic("MulDiagTSlice w mismatch", func() {
		MulDiagTSlice(make([]float64, 4), New(2, 3), make([]float64, 2), New(2, 3), make([]float64, 3))
	})
}
