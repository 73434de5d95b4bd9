package mat

import (
	"math/rand"
	"testing"
)

// widened returns row as float64s — what DotWiden and Dot4 do element by
// element before multiplying.
func widened[E Elem](row []E) []float64 {
	out := make([]float64, len(row))
	for i, v := range row {
		out[i] = float64(v)
	}
	return out
}

// checkWiden pins the mixed-precision kernels to the float64 one: for every
// length (all unroll remainders), DotWiden(w, row) is bit-identical to
// DotUnrolled over the widened row, and each Dot4 lane to DotWiden.
func checkWiden[E Elem](t *testing.T, draw func(*rand.Rand) E) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 17; n++ {
		row := make([]E, n)
		for i := range row {
			row[i] = draw(rng)
		}
		var w [4][]float64
		for l := range w {
			w[l] = make([]float64, n)
			for i := range w[l] {
				w[l][i] = rng.NormFloat64()
			}
		}
		wide := widened(row)
		var want [4]float64
		for l := range w {
			want[l] = DotUnrolled(w[l], wide)
			if got := DotWiden(w[l], row); got != want[l] {
				t.Fatalf("n=%d: DotWiden %v, DotUnrolled over the widened row %v", n, got, want[l])
			}
		}
		d0, d1, d2, d3 := Dot4(w[0], w[1], w[2], w[3], row)
		if got := [4]float64{d0, d1, d2, d3}; got != want {
			t.Fatalf("n=%d: Dot4 lanes %v, DotWiden %v", n, got, want)
		}
	}
}

func TestDotWidenAndDot4MatchDotUnrolled(t *testing.T) {
	t.Run("float64", func(t *testing.T) { checkWiden(t, func(r *rand.Rand) float64 { return r.NormFloat64() }) })
	t.Run("float32", func(t *testing.T) { checkWiden(t, func(r *rand.Rand) float32 { return float32(r.NormFloat64()) }) })
	t.Run("int8", func(t *testing.T) { checkWiden(t, func(r *rand.Rand) int8 { return int8(r.Intn(255) - 127) }) })
}

func TestDotWidenLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotWiden accepted slices of different lengths")
		}
	}()
	DotWiden(make([]float64, 3), make([]int8, 4))
}
