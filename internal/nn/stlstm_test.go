package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestSTLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewSTLSTMCell("st", 3, 4, rng)
	x := []float64{0.2, -0.4, 0.7}
	h0 := []float64{0.1, 0.2, -0.3, 0.4}
	c0 := []float64{-0.1, 0.3, 0.2, 0.0}
	const dt, dd = 0.4, 0.7
	loss := func() float64 {
		h, cNew, _ := c.Forward(x, h0, c0, dt, dd)
		var s float64
		for _, v := range h {
			s += v
		}
		for _, v := range cNew {
			s += 0.5 * v
		}
		return s
	}
	_, _, cache := c.Forward(x, h0, c0, dt, dd)
	dHVec := []float64{1, 1, 1, 1}
	dCVec := []float64{0.5, 0.5, 0.5, 0.5}
	dX, dH, dC := c.Backward(cache, dHVec, dCVec)
	for _, p := range c.Params() {
		for i := range p.Value {
			want := numericalGrad(loss, p.Value, i)
			if math.Abs(p.Grad[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", p.Name, i, p.Grad[i], want)
			}
		}
	}
	for i := range x {
		want := numericalGrad(loss, x, i)
		if math.Abs(dX[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("dX[%d]: %g vs %g", i, dX[i], want)
		}
	}
	for i := range h0 {
		want := numericalGrad(loss, h0, i)
		if math.Abs(dH[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("dH[%d]: %g vs %g", i, dH[i], want)
		}
	}
	for i := range c0 {
		want := numericalGrad(loss, c0, i)
		if math.Abs(dC[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("dC[%d]: %g vs %g", i, dC[i], want)
		}
	}
}

func TestSTLSTMGatesModulateContent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewSTLSTMCell("st", 2, 3, rng)
	// Make the time gate strongly sensitive to Δt.
	for j := 0; j < 3; j++ {
		c.WtT[j] = -10 // large Δt closes the gate
		c.BT[j] = 5
	}
	x := []float64{0.5, -0.5}
	h0 := make([]float64, 3)
	c0 := make([]float64, 3)
	_, cSoon, _ := c.Forward(x, h0, c0, 0, 0.1) // immediate revisit
	_, cLate, _ := c.Forward(x, h0, c0, 1, 0.1) // long gap
	var normSoon, normLate float64
	for j := 0; j < 3; j++ {
		normSoon += math.Abs(cSoon[j])
		normLate += math.Abs(cLate[j])
	}
	if normLate >= normSoon {
		t.Fatalf("a closed time gate must admit less content: soon %g vs late %g", normSoon, normLate)
	}
}

func TestSTLSTMForgetBiasAndZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewSTLSTMCell("st", 2, 3, rng)
	for j := 3; j < 6; j++ {
		if c.B[j] != 1 {
			t.Fatal("forget bias must start at 1")
		}
	}
	x := []float64{1, 1}
	h0, c0 := make([]float64, 3), make([]float64, 3)
	_, _, cache := c.Forward(x, h0, c0, 0.5, 0.5)
	c.Backward(cache, []float64{1, 1, 1}, make([]float64, 3))
	var any bool
	for _, p := range c.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				any = true
			}
		}
	}
	if !any {
		t.Fatal("backward must accumulate gradients")
	}
	c.ZeroGrad()
	for _, p := range c.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("ZeroGrad must clear all accumulators")
			}
		}
	}
}

// ZeroGrad clears the gradient accumulators.
func (c *STLSTMCell) ZeroGrad() {
	zero(c.GradW)
	zero(c.GradB)
	zero(c.GradWxT)
	zero(c.GradWtT)
	zero(c.GradBT)
	zero(c.GradWxD)
	zero(c.GradWdD)
	zero(c.GradBD)
}
