package mat

import (
	"math/rand"
	"testing"
)

func randomMatrix(r, c int, seed int64) *Matrix {
	return Random(r, c, 1, rand.New(rand.NewSource(seed)))
}

func TestDotUnrolledMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 10, 13, 64, 1000} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		want := Dot(a, b)
		got := DotUnrolled(a, b)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("n=%d: DotUnrolled %v vs Dot %v", n, got, want)
		}
	}
}

// TestGemmShapePanics covers the kernels' operand checks that
// TestGEMMPanicsOnBadShapes does not: unequal DotUnrolled lengths and a b
// operand whose width is not the rank.
func TestGemmShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"DotUnrolled-length": func() { DotUnrolled(make([]float64, 3), make([]float64, 4)) },
		"MulDiagTSlice-b": func() {
			MulDiagTSlice(make([]float64, 4), New(2, 3), make([]float64, 3), New(2, 2), make([]float64, 3))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
