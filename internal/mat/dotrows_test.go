package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refDotRows is the specification DotRows is held to, written out apart from
// the kernel: per row four accumulators over the groups of four elements,
// the tail into s0, then (s0+s1)+(s2+s3), each product rounded on its own.
func refDotRows[E Elem](w []float64, rows []E, n int) []float64 {
	r := len(w)
	out := make([]float64, n)
	for j := range out {
		var s [4]float64
		for t := 0; t < r; t++ {
			lane := t % 4
			if t >= r&^3 {
				lane = 0
			}
			s[lane] += float64(w[t] * float64(rows[j*r+t]))
		}
		out[j] = (s[0] + s[1]) + (s[2] + s[3])
	}
	return out
}

// sameBits reports whether a and b are the same float64, counting any two
// NaNs as equal: which NaN payload survives an add of two NaNs depends on
// the operand order, which Go does not fix.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkDotRows runs DotRows and its Go body on n rows of width len(w) and
// fails on the first row whose bits differ from refDotRows.
func checkDotRows[E Elem](t *testing.T, w []float64, rows []E, n int, dst []float64) {
	t.Helper()
	want := refDotRows(w, rows, n)
	for _, body := range []struct {
		name string
		run  func(dst, w []float64, rows []E)
	}{{"DotRows", DotRows[E]}, {"dotRowsGo", dotRowsGo[E]}} {
		for j := range dst {
			dst[j] = -1
		}
		body.run(dst, w, rows)
		for j := range want {
			if !sameBits(dst[j], want[j]) {
				t.Fatalf("%s r=%d n=%d: row %d = %v (%#x), reference %v (%#x)",
					body.name, len(w), n, j, dst[j], math.Float64bits(dst[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// specials are the values a factor slab should never hold but the kernel
// must still sum in order: signed zeros, infinities, NaN, subnormals and the
// extremes that overflow to ±Inf when multiplied.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.2250738585072014e-309, math.MaxFloat64, -math.MaxFloat64, 1e-40}

// TestDotRowsMatchesReference sweeps every width 0…64 (all four tail
// lengths, up to sixteen full groups) against every row count 0…67 (all
// four remainders of the four-row groups), for each element type, with the
// slab, the weights and the output each starting off a 32-byte boundary in
// turn, and with one element in seven a special value.
func TestDotRowsMatchesReference(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		sweepDotRows(t, func(v float64) float64 { return v })
	})
	t.Run("float32", func(t *testing.T) {
		sweepDotRows(t, func(v float64) float32 { return float32(v) })
	})
	t.Run("int8", func(t *testing.T) {
		sweepDotRows(t, func(v float64) int8 { return int8(math.Max(-128, math.Min(127, v*40))) })
	})
}

func sweepDotRows[E Elem](t *testing.T, conv func(float64) E) {
	rng := rand.New(rand.NewSource(36))
	draw := func() float64 {
		if rng.Intn(7) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	for r := 0; r <= 64; r++ {
		for n := 0; n <= 67; n++ {
			off := (r + n) % 4
			wbuf := make([]float64, r+off)
			rbuf := make([]E, n*r+off)
			dbuf := make([]float64, n+off)
			w, rows, dst := wbuf[off:], rbuf[off:], dbuf[off:]
			for i := range w {
				w[i] = draw()
			}
			for i := range rows {
				if e := draw(); e == e {
					rows[i] = conv(e)
				} else {
					rows[i] = conv(0) // int8 has no NaN; float rows get theirs from w
				}
			}
			checkDotRows(t, w, rows, n, dst)
		}
	}
}

// FuzzDotRows turns the fuzzed bytes into a width, a row count, an element
// type and the values — each one a special value or raw float64 bits — and
// asserts that DotRows and its Go body match the reference bit for bit.
func FuzzDotRows(f *testing.F) {
	f.Add([]byte{10, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 8, 1, 0xff, 0x7f, 0x80, 0})
	f.Add([]byte{41, 67, 2, 0x42, 0x13, 0x99, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r, n, kind := int(data[0]%65), int(data[1]%68), data[2]%3
		src := data[3:]
		next := func() float64 {
			if len(src) == 0 {
				return 1
			}
			b := src[0]
			src = src[1:]
			if b < 0x40 {
				return specials[int(b)%len(specials)]
			}
			if len(src) < 8 {
				return float64(int8(b))
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(src))
			src = src[8:]
			return v
		}
		w := make([]float64, r)
		for i := range w {
			w[i] = next()
		}
		vals := make([]float64, n*r)
		for i := range vals {
			vals[i] = next()
		}
		dst := make([]float64, n)
		switch kind {
		case 0:
			checkDotRows(t, w, vals, n, dst)
		case 1:
			rows := make([]float32, len(vals))
			for i, v := range vals {
				rows[i] = float32(v)
			}
			checkDotRows(t, w, rows, n, dst)
		default:
			rows := make([]int8, len(vals))
			for i, v := range vals {
				rows[i] = int8(math.Float64bits(v))
			}
			checkDotRows(t, w, rows, n, dst)
		}
	})
}

// BenchmarkDotRows times one pass of the benchmark catalogue's shape —
// J = 131 072 rows of rank 10 — in each storage mode's element type; the
// slab is 10.5 MB in float64, so the f64 row also prices the memory stream.
func BenchmarkDotRows(b *testing.B) {
	const J, r = 131072, 10
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, r)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	dst := make([]float64, J)
	f64 := make([]float64, J*r)
	f32 := make([]float32, J*r)
	i8 := make([]int8, J*r)
	for i := range f64 {
		f64[i] = rng.NormFloat64()
		f32[i] = float32(f64[i])
		i8[i] = int8(rng.Intn(255) - 127)
	}
	b.Run("f64", func(b *testing.B) {
		for range b.N {
			DotRows(dst, w, f64)
		}
	})
	b.Run("f32", func(b *testing.B) {
		for range b.N {
			DotRows(dst, w, f32)
		}
	})
	b.Run("int8", func(b *testing.B) {
		for range b.N {
			DotRows(dst, w, i8)
		}
	})
}

// TestDotRowsLengthMismatchPanics checks the single-row call, which never
// reaches the four-row body: a row one element longer than w must panic, not
// be summed short. TestGemmShapePanics covers the multi-row slabs.
func TestDotRowsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotRows accepted a row of a different length than w")
		}
	}()
	DotRows(make([]float64, 1), make([]float64, 3), make([]int8, 4))
}
