package mat

import (
	"math/rand"
	"testing"
)

func randomMatrix(r, c int, seed int64) *Matrix {
	return Random(r, c, 1, rand.New(rand.NewSource(seed)))
}

// TestDotRowsMatchesDot: DotRows' four-accumulator order agrees with the
// sequential Dot to rounding, one row at a time.
func TestDotRowsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 10, 13, 64, 1000} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		want := Dot(a, b)
		var got [1]float64
		DotRows(got[:], a, b)
		if diff := got[0] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("n=%d: DotRows %v vs Dot %v", n, got[0], want)
		}
	}
}

// TestGemmShapePanics covers the kernels' operand checks that
// TestGEMMPanicsOnBadShapes does not: a DotRows slab that is not len(dst)
// rows of len(w) elements, in each element type, and a b operand whose width
// is not the rank. The DotRows rows check that the panic comes before any
// row is scored: dst must hold its sentinel afterwards, so no kernel body,
// assembly or Go, has run on the mismatched operands.
func TestGemmShapePanics(t *testing.T) {
	dst := make([]float64, 8)
	for name, fn := range map[string]func(){
		"DotRows-float64": func() { DotRows(dst, make([]float64, 3), make([]float64, 23)) },
		"DotRows-float32": func() { DotRows(dst, make([]float64, 3), make([]float32, 25)) },
		"DotRows-int8":    func() { DotRows(dst, make([]float64, 3), make([]int8, 4)) },
		"MulDiagTSlice-b": func() {
			MulDiagTSlice(make([]float64, 4), New(2, 3), make([]float64, 3), New(2, 2), make([]float64, 3))
		},
	} {
		for j := range dst {
			dst[j] = -7
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
		for j, v := range dst {
			if v != -7 {
				t.Fatalf("%s: dst[%d] = %v after the panic; a kernel ran on mismatched operands", name, j, v)
			}
		}
	}
}
