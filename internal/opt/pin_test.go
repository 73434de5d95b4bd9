package opt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pinSpecials are the values a trained model should never hold but Step must
// still carry bit for bit: signed zeros, infinities, NaN, subnormals, and
// magnitudes whose square overflows or underflows.
var pinSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.2250738585072014e-309, 1e-160, math.MaxFloat64, -1e200}

// digestFloats writes each value's bits to h, every NaN as one canonical
// word: which NaN payload survives an operation on two NaNs depends on the
// operand order the compiler picks, which Go does not fix.
func digestFloats(h hash.Hash, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		bits := math.Float64bits(v)
		if v != v {
			bits = 0x7ff8000000000001
		}
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
}

// digestAdam writes the named groups' params and the optimizer's exported
// state (step count, m, v) to h in name order.
func digestAdam(h hash.Hash, a *Adam, params map[string][]float64) {
	st := a.Export()
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s %d\n", name, st.Steps[name])
		digestFloats(h, params[name])
		digestFloats(h, st.M[name])
		digestFloats(h, st.V[name])
	}
}

// TestAdamPinned pins Step bit for bit: twenty steps of every group length
// 1–9, 13, 37 and 11 730 (all four remainders of a four-element group, and
// the node-write model's parameter count), with and without weight decay,
// on params that hold special values one time in eleven and gradients one
// time in sixty-one (a NaN or infinite gradient poisons its element for
// good, so most elements stay finite through the twenty steps); then
// one group stepped five more times by a second optimizer that imported the
// first one's state. A change to the update's arithmetic or its order moves
// the digest.
func TestAdamPinned(t *testing.T) {
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 37, 11730}
	cases := []struct {
		wd   float64
		want string
	}{
		{0, "b30e235effadf2f4e5ea0f567f127f3eca2ad98740bae55ac2cd79613481094d"},
		{0.1, "ed5bc01e278f784c3e4aa9e0a8399afe58d47891ce5b5e374d349c1030ab814e"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("wd=%g", tc.wd), func(t *testing.T) {
			rng := rand.New(rand.NewSource(49))
			draw := func(scale float64, oneIn int) float64 {
				if rng.Intn(oneIn) == 0 {
					return pinSpecials[rng.Intn(len(pinSpecials))]
				}
				return scale * rng.NormFloat64()
			}
			params := make(map[string][]float64, len(lengths))
			grads := make(map[string][]float64, len(lengths))
			for _, n := range lengths {
				p := make([]float64, n)
				for i := range p {
					p[i] = draw(1, 11)
				}
				name := fmt.Sprintf("g%d", n)
				params[name], grads[name] = p, make([]float64, n)
			}
			a := NewAdam(0.05, tc.wd)
			for step := 0; step < 20; step++ {
				for _, n := range lengths {
					name := fmt.Sprintf("g%d", n)
					g := grads[name]
					for i := range g {
						g[i] = draw(0.3, 61)
					}
					a.Step(name, params[name], g)
				}
			}
			h := sha256.New()
			digestAdam(h, a, params)

			b := NewAdam(0.05, tc.wd)
			if err := b.Import(a.Export()); err != nil {
				t.Fatal(err)
			}
			resumed := map[string][]float64{"g37": params["g37"]}
			for step := 0; step < 5; step++ {
				g := grads["g37"]
				for i := range g {
					g[i] = draw(0.3, 61)
				}
				b.Step("g37", resumed["g37"], g)
			}
			digestAdam(h, b, resumed)

			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
