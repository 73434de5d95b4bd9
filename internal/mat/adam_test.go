package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// adamHyper is one call's scalars: the betas, the bias corrections, the
// learning rate, eps and the weight decay.
type adamHyper struct{ b1, b2, c1, c2, lr, eps, wd float64 }

// adamAt returns the paper's hyperparameters (β = 0.9, 0.999, eps = 1e-8)
// with the bias corrections of step t.
func adamAt(t int, lr, wd float64) adamHyper {
	return adamHyper{0.9, 0.999, 1 - math.Pow(0.9, float64(t)), 1 - math.Pow(0.999, float64(t)), lr, 1e-8, wd}
}

// adamSteps are the steps whose bias corrections the tests take: the first
// two (c1 = 0.1 and 0.19, c2 near 0), a tenth, and one where c1 is 1.
var adamSteps = []int{1, 2, 10, 10000}

// adamSpecials adds to specials the values whose square overflows to +Inf
// or underflows to 0, and a negative second moment, whose square root is
// NaN.
var adamSpecials = append([]float64{1e200, -1e-170, -0.5}, specials...)

// checkAdamStep runs AdamStep and adamStepGo on copies of one input and
// fails unless params and both moments come out with the same bits (any
// two NaNs count as equal, as in sameBits).
func checkAdamStep(t *testing.T, params, grads, m, v []float64, hp adamHyper) {
	t.Helper()
	cp := func(s []float64) []float64 { return append([]float64(nil), s...) }
	gp, gm, gv := cp(params), cp(m), cp(v)
	wp, wm, wv := cp(params), cp(m), cp(v)
	AdamStep(gp, grads, gm, gv, hp.b1, hp.b2, hp.c1, hp.c2, hp.lr, hp.eps, hp.wd)
	adamStepGo(wp, grads, wm, wv, hp.b1, hp.b2, hp.c1, hp.c2, hp.lr, hp.eps, hp.wd)
	for _, s := range []struct {
		name      string
		got, want []float64
	}{{"params", gp, wp}, {"m", gm, wm}, {"v", gv, wv}} {
		for i := range s.want {
			if !sameBits(s.got[i], s.want[i]) {
				t.Fatalf("n=%d %+v: %s[%d] = %v (%#x), reference %v (%#x); g %v p %v m %v v %v",
					len(params), hp, s.name, i, s.got[i], math.Float64bits(s.got[i]), s.want[i],
					math.Float64bits(s.want[i]), grads[i], params[i], m[i], v[i])
			}
		}
	}
}

// TestAdamStepMatchesReference sweeps every length 0…40 (all four
// remainders of the four-parameter groups) and 11 730, the node-write
// model's parameter count, at the bias corrections of steps 1, 2, 10 and
// 10⁴, with and without weight decay, with the slices starting off a
// 32-byte boundary in turn and one value in seven special.
func TestAdamStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	draw := func(scale float64) float64 {
		if rng.Intn(7) == 0 {
			return adamSpecials[rng.Intn(len(adamSpecials))]
		}
		return scale * rng.NormFloat64()
	}
	lengths := make([]int, 0, 42)
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 11730)
	for _, n := range lengths {
		for _, step := range adamSteps {
			for _, wd := range []float64{0, 0.1} {
				off := (n + step) % 4
				fill := func(scale float64) []float64 {
					s := make([]float64, n+off)[off:]
					for i := range s {
						s[i] = draw(scale)
					}
					return s
				}
				params, grads, m := fill(1), fill(0.3), fill(0.03)
				v := fill(0.01)
				for i, x := range v {
					if x == x && rng.Intn(2) == 0 {
						v[i] = x * x // mostly a true second moment, ≥ 0
					}
				}
				checkAdamStep(t, params, grads, m, v, adamAt(step, 0.001, wd))
			}
		}
	}
}

// FuzzAdamStep turns the fuzzed bytes into a length, a step, a weight decay
// and the values — each a special value or raw float64 bits — and asserts
// that AdamStep matches its Go body bit for bit. When the second byte's top
// bit is set, the betas, learning rate, eps and decay come from the bytes
// too.
func FuzzAdamStep(f *testing.F) {
	f.Add([]byte{13, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0x83, 0x44, 0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a, 0x01})
	f.Add([]byte{40, 0x06, 0x7f, 0x80, 0, 0xff, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, mode := int(data[0]%41), data[1]
		src := data[2:]
		next := func() float64 {
			if len(src) == 0 {
				return 0.5
			}
			b := src[0]
			src = src[1:]
			if b < 0x40 {
				return adamSpecials[int(b)%len(adamSpecials)]
			}
			if len(src) < 8 {
				return float64(int8(b)) / 16
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(src))
			src = src[8:]
			return v
		}
		hp := adamAt(adamSteps[mode%4], 0.001, [2]float64{0, 0.1}[mode>>2&1])
		if mode&0x80 != 0 {
			hp.b1, hp.b2, hp.lr, hp.eps, hp.wd = next(), next(), next(), next(), next()
		}
		fill := func() []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = next()
			}
			return s
		}
		params, grads, m, v := fill(), fill(), fill(), fill()
		checkAdamStep(t, params, grads, m, v, hp)
	})
}

// TestAdamStepLengthMismatchPanics checks that AdamStep refuses slices of
// different lengths before it writes anything: the assembly body would
// otherwise step past the end of the shorter ones.
func TestAdamStepLengthMismatchPanics(t *testing.T) {
	for short := 0; short < 4; short++ {
		t.Run(fmt.Sprint(short), func(t *testing.T) {
			s := [4][]float64{{1, 2, 3, 4, 5}, {1, 1, 1, 1, 1}, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}}
			s[short] = s[short][:4]
			defer func() {
				if recover() == nil {
					t.Fatal("AdamStep accepted slices of different lengths")
				}
				if s[0][0] != 1 || s[2][0] != 0 || s[3][0] != 0 {
					t.Fatalf("AdamStep wrote before panicking: params %v m %v v %v", s[0], s[2], s[3])
				}
			}()
			AdamStep(s[0], s[1], s[2], s[3], 0.9, 0.999, 0.1, 0.001, 0.1, 1e-8, 0)
		})
	}
}

// BenchmarkAdamStep times one step of 11 730 parameters, the node-write
// model's count (360 users, 800 POIs, 12 months, rank 10, plus h), through
// AdamStep (the assembly body where the CPU has AVX2) and through its Go
// body.
func BenchmarkAdamStep(b *testing.B) {
	const n = 11730
	rng := rand.New(rand.NewSource(1))
	params, grads, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range params {
		params[i], grads[i] = rng.NormFloat64(), 0.1*rng.NormFloat64()
	}
	hp := adamAt(10, 0.001, 0.1)
	b.Run("kernel", func(b *testing.B) {
		for range b.N {
			AdamStep(params, grads, m, v, hp.b1, hp.b2, hp.c1, hp.c2, hp.lr, hp.eps, hp.wd)
		}
	})
	b.Run("go", func(b *testing.B) {
		for range b.N {
			adamStepGo(params, grads, m, v, hp.b1, hp.b2, hp.c1, hp.c2, hp.lr, hp.eps, hp.wd)
		}
	})
}
