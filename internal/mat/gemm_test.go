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

func TestMulIntoMatchesMul(t *testing.T) {
	for _, dims := range [][3]int{{3, 4, 5}, {10, 10, 10}, {1, 7, 2}, {65, 33, 70}} {
		a := randomMatrix(dims[0], dims[1], 2)
		b := randomMatrix(dims[1], dims[2], 3)
		want := a.Mul(b)
		out := New(dims[0], dims[2])
		out.Fill(42) // MulInto must overwrite stale contents
		MulInto(out, a, b)
		for i := range out.Data {
			if out.Data[i] != want.Data[i] {
				t.Fatalf("dims=%v: MulInto differs from Mul at %d: %v vs %v", dims, i, out.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulTIntoMatchesMulT(t *testing.T) {
	for _, dims := range [][3]int{{3, 5, 4}, {10, 10, 10}, {1, 2, 7}, {33, 70, 65}} {
		a := randomMatrix(dims[0], dims[1], 4)
		b := randomMatrix(dims[2], dims[1], 5)
		want := a.MulT(b)
		out := New(dims[0], dims[2])
		out.Fill(-1)
		MulTInto(out, a, b)
		if !out.Equalf(want, 1e-12) {
			t.Fatalf("dims=%v: MulTInto differs from MulT", dims)
		}
	}
}

func TestMulBlockedMatchesMul(t *testing.T) {
	for _, dims := range [][3]int{
		{3, 4, 5},     // small: falls back to MulInto
		{64, 64, 64},  // exactly one tile
		{65, 64, 63},  // straddles tile boundaries
		{130, 70, 90}, // several tiles each way
	} {
		a := randomMatrix(dims[0], dims[1], 6)
		b := randomMatrix(dims[1], dims[2], 7)
		want := a.Mul(b)
		out := New(dims[0], dims[2])
		out.Fill(3)
		MulBlocked(out, a, b)
		if !out.Equalf(want, 1e-10) {
			t.Fatalf("dims=%v: MulBlocked differs from Mul", dims)
		}
	}
}

func TestMulDiagTInto(t *testing.T) {
	const J, K, r = 17, 9, 10
	a := randomMatrix(J, r, 8)
	b := randomMatrix(K, r, 9)
	w := make([]float64, r)
	rng := rand.New(rand.NewSource(10))
	for t := range w {
		w[t] = rng.NormFloat64()
	}
	out := New(J, K)
	scratch := make([]float64, r)
	MulDiagTInto(out, a, w, b, scratch)
	for i := 0; i < J; i++ {
		for j := 0; j < K; j++ {
			var want float64
			for t := 0; t < r; t++ {
				want += a.At(i, t) * w[t] * b.At(j, t)
			}
			if diff := out.At(i, j) - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("(%d,%d): %v vs %v", i, j, out.At(i, j), want)
			}
		}
	}
}

func TestGemmShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(3, 4)
	for name, fn := range map[string]func(){
		"MulInto-out":    func() { MulInto(New(2, 3), a, b) },
		"MulInto-inner":  func() { MulInto(New(2, 2), a, New(2, 2)) },
		"MulTInto-out":   func() { MulTInto(New(3, 3), a, New(4, 3)) },
		"MulBlocked-out": func() { MulBlocked(New(4, 4), a, b) },
		"MulDiagT-w":     func() { MulDiagTInto(New(2, 5), a, make([]float64, 2), New(5, 3), make([]float64, 3)) },
		"MulDiagT-scratch": func() {
			MulDiagTInto(New(2, 5), a, make([]float64, 3), New(5, 3), make([]float64, 1))
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
