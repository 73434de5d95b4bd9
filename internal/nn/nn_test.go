package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates df/dx_i by central differences.
func numericalGrad(f func() float64, x []float64, i int) float64 {
	const h = 1e-6
	orig := x[i]
	x[i] = orig + h
	fp := f()
	x[i] = orig - h
	fm := f()
	x[i] = orig
	return (fp - fm) / (2 * h)
}

// sumLoss is a simple scalar loss: sum of outputs. Its upstream gradient is
// all ones, which makes gradient checks straightforward.
func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func checkClose(t *testing.T, name string, got, want float64) {
	t.Helper()
	tol := 1e-4 * (1 + math.Abs(want))
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: analytic %g vs numeric %g", name, got, want)
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 2, 2, rng)
	copy(d.W, []float64{1, 2, 3, 4})
	copy(d.B, []float64{10, 20})
	y := d.Forward([]float64{1, 1})
	if y[0] != 13 || y[1] != 27 {
		t.Fatalf("Forward = %v, want [13 27]", y)
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense("d", 3, 2, rng)
	x := []float64{0.5, -1, 2}
	loss := func() float64 {
		y := d.Forward(x)
		return y[0] + y[1]
	}
	y := d.Forward(x)
	dx := d.Backward(x, ones(len(y)))
	for i := range d.W {
		checkClose(t, "dW", d.GradW[i], numericalGrad(loss, d.W, i))
	}
	for i := range d.B {
		checkClose(t, "dB", d.GradB[i], numericalGrad(loss, d.B, i))
	}
	for i := range x {
		checkClose(t, "dX", dx[i], numericalGrad(loss, x, i))
	}
}

func TestActivations(t *testing.T) {
	x := []float64{-1, 0, 2}
	relu := (&Activation{Kind: ReLU}).Forward(x)
	if relu[0] != 0 || relu[1] != 0 || relu[2] != 2 {
		t.Fatalf("ReLU = %v", relu)
	}
	sig := (&Activation{Kind: Sigmoid}).Forward([]float64{0})
	if math.Abs(sig[0]-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %g", sig[0])
	}
	// Numerical stability in the tails.
	if v := SigmoidF(-1000); v != 0 || math.IsNaN(v) {
		if math.IsNaN(v) {
			t.Fatal("SigmoidF(-1000) is NaN")
		}
	}
	if v := SigmoidF(1000); math.Abs(v-1) > 1e-12 {
		t.Fatalf("SigmoidF(1000) = %g", v)
	}
}

func TestActivationGradientCheck(t *testing.T) {
	for _, kind := range []ActKind{ReLU, Sigmoid, Tanh} {
		a := &Activation{Kind: kind}
		x := []float64{0.3, -0.7, 1.5}
		loss := func() float64 {
			y := a.Forward(x)
			return y[0] + y[1] + y[2]
		}
		dx := a.Backward(x, ones(3))
		for i := range x {
			checkClose(t, "activation dX", dx[i], numericalGrad(loss, x, i))
		}
	}
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP("m", 3, []int{4, 4}, 2, Tanh, rng)
	x := []float64{0.2, -0.4, 0.9}
	loss := func() float64 {
		y := m.Forward(x)
		return 2*y[0] - y[1]
	}
	y := m.Forward(x)
	dx := m.Backward(x, []float64{2, -1})
	_ = y
	for _, p := range m.Params() {
		for i := range p.Value {
			checkClose(t, p.Name, p.Grad[i], numericalGrad(loss, p.Value, i))
		}
	}
	for i := range x {
		checkClose(t, "mlp dX", dx[i], numericalGrad(loss, x, i))
	}
}

func TestMLPOutDim(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP("m", 5, []int{8}, 3, ReLU, rng)
	if got := m.OutDim(5); got != 3 {
		t.Fatalf("OutDim = %d, want 3", got)
	}
	if got := len(m.Forward(make([]float64, 5))); got != 3 {
		t.Fatalf("forward dim = %d, want 3", got)
	}
}

func TestEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEmbedding("e", 4, 3, rng)
	copy(e.W[2*3:], []float64{1, 2, 3})
	v := e.Lookup(2)
	if v[0] != 1 || v[2] != 3 {
		t.Fatalf("Lookup = %v", v)
	}
	e.Accumulate(2, []float64{0.1, 0.2, 0.3})
	if e.GradW[2*3+1] != 0.2 {
		t.Fatal("Accumulate wrote wrong slot")
	}
	e.ZeroGrad()
	if e.GradW[2*3+1] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEmbedding("e", 2, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Lookup must panic")
		}
	}()
	e.Lookup(2)
}

func TestRNNCellGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewRNNCell("r", 3, 4, rng)
	x := []float64{0.1, -0.5, 0.8}
	h0 := []float64{0.2, 0.3, -0.1, 0.4}
	loss := func() float64 {
		h, _ := c.Forward(x, h0)
		var s float64
		for _, v := range h {
			s += v
		}
		return s
	}
	_, cache := c.Forward(x, h0)
	dX, dH := c.Backward(cache, ones(4))
	for _, p := range c.Params() {
		for i := range p.Value {
			checkClose(t, p.Name, p.Grad[i], numericalGrad(loss, p.Value, i))
		}
	}
	for i := range x {
		checkClose(t, "rnn dX", dX[i], numericalGrad(loss, x, i))
	}
	for i := range h0 {
		checkClose(t, "rnn dH", dH[i], numericalGrad(loss, h0, i))
	}
}

func TestAttentionUniformWhenKeysEqual(t *testing.T) {
	a := &Attention{Dim: 2}
	q := []float64{1, 0}
	k := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	v := [][]float64{{1, 0}, {0, 1}}
	out, cache := a.Forward(q, k, v)
	if math.Abs(cache.Scores[0]-0.5) > 1e-12 || math.Abs(out[0]-0.5) > 1e-12 {
		t.Fatalf("equal keys must give uniform attention: %v %v", cache.Scores, out)
	}
}

func TestAttentionGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := &Attention{Dim: 3}
	q := []float64{0.3, -0.2, 0.8}
	keys := [][]float64{
		{0.1, 0.4, -0.3},
		{-0.6, 0.2, 0.5},
		{0.9, -0.1, 0.2},
	}
	values := [][]float64{
		{1, 0, 0.5},
		{0, 1, -0.5},
		{0.5, 0.5, 1},
	}
	_ = rng
	loss := func() float64 {
		out, _ := a.Forward(q, keys, values)
		return out[0] + 2*out[1] - out[2]
	}
	_, cache := a.Forward(q, keys, values)
	dQ, dK, dV := a.Backward(cache, []float64{1, 2, -1})
	for i := range q {
		checkClose(t, "attn dQ", dQ[i], numericalGrad(loss, q, i))
	}
	for n := range keys {
		for i := range keys[n] {
			checkClose(t, "attn dK", dK[n][i], numericalGrad(loss, keys[n], i))
			checkClose(t, "attn dV", dV[n][i], numericalGrad(loss, values[n], i))
		}
	}
}

func TestAttentionStability(t *testing.T) {
	// Large logits must not overflow thanks to the max-subtraction.
	a := &Attention{Dim: 1}
	out, cache := a.Forward([]float64{1000}, [][]float64{{1}, {2}}, [][]float64{{1}, {2}})
	if math.IsNaN(out[0]) || math.IsNaN(cache.Scores[0]) {
		t.Fatal("attention overflowed on large logits")
	}
	// The larger-key value dominates.
	if out[0] < 1.99 {
		t.Fatalf("sharp attention should pick value 2, got %g", out[0])
	}
}

// ZeroGrad clears the gradient accumulators.
func (c *RNNCell) ZeroGrad() {
	zero(c.GradWx)
	zero(c.GradWh)
	zero(c.GradB)
}
