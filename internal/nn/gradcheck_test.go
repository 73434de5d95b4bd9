// Differential gradient verification of every internal/nn layer through the
// internal/check harness. The per-layer spot checks in nn_test.go remain as
// fast smoke tests; these sweep every parameter element — and the input
// gradients — at the harness's 1e-6 relative tolerance, including multi-step
// backpropagation-through-time for the recurrent cells.
package nn_test

import (
	"math/rand"
	"testing"

	"tcss/internal/check"
	"tcss/internal/nn"
)

func TestGradcheckDense(t *testing.T) {
	d := nn.NewDense("fc", 4, 3, rand.New(rand.NewSource(1)))
	x := check.RandomVector(4, 1, 2)
	w := check.ProbeWeights(3, 3)
	check.Assert(t, check.LayerLoss(d, x, w), check.LayerParams(d), check.Options{})
}

func TestGradcheckMLPActivations(t *testing.T) {
	// tanh and sigmoid are smooth everywhere; relu is checked at a fixed
	// generic input where no pre-activation sits within Eps of its kink.
	for _, tc := range []struct {
		name string
		act  nn.ActKind
	}{{"tanh", nn.Tanh}, {"sigmoid", nn.Sigmoid}, {"relu", nn.ReLU}} {
		t.Run(tc.name, func(t *testing.T) {
			m := nn.NewMLP("mlp", 5, []int{6, 4}, 3, tc.act, rand.New(rand.NewSource(4)))
			x := check.RandomVector(5, 1, 5)
			w := check.ProbeWeights(3, 6)
			check.Assert(t, check.LayerLoss(m, x, w), check.LayerParams(m), check.Options{})
		})
	}
}

func TestGradcheckEmbedding(t *testing.T) {
	e := nn.NewEmbedding("emb", 6, 4, rand.New(rand.NewSource(7)))
	w := check.ProbeWeights(4, 8)
	// Layer-form embedding: the input is the id; only the looked-up row may
	// carry gradient, which the full-table sweep verifies implicitly (all
	// other rows must check out at exactly zero).
	check.Assert(t, check.LayerLoss(e, []float64{2}, w), check.LayerParams(e), check.Options{})
}

// recurrent drives a cell through T steps of BPTT and probes the final
// hidden state; params cover the cell weights AND the step inputs, so both
// the parameter and the data paths of Backward are verified.
func TestGradcheckRNNCellBPTT(t *testing.T) {
	const inDim, hidDim, T = 3, 4, 3
	cell := nn.NewRNNCell("rnn", inDim, hidDim, rand.New(rand.NewSource(9)))
	xs := make([][]float64, T)
	gxs := make([][]float64, T)
	for s := range xs {
		xs[s] = check.RandomVector(inDim, 1, int64(10+s))
		gxs[s] = make([]float64, inDim)
	}
	h0 := check.RandomVector(hidDim, 0.5, 20)
	gh0 := make([]float64, hidDim)
	w := check.ProbeWeights(hidDim, 21)

	f := func() float64 {
		cell.ZeroGrad()
		h := h0
		caches := make([]*nn.RNNCache, T)
		for s := 0; s < T; s++ {
			h, caches[s] = cell.Forward(xs[s], h)
		}
		var loss float64
		for o, v := range h {
			loss += w[o] * v
		}
		dH := append([]float64(nil), w...)
		for s := T - 1; s >= 0; s-- {
			var dX []float64
			dX, dH = cell.Backward(caches[s], dH)
			copy(gxs[s], dX)
		}
		copy(gh0, dH)
		return loss
	}
	params := check.LayerParams(cell)
	for s := range xs {
		params = append(params, check.Param{Name: "x" + string(rune('0'+s)), Value: xs[s], Grad: gxs[s]})
	}
	params = append(params, check.Param{Name: "h0", Value: h0, Grad: gh0})
	check.Assert(t, f, params, check.Options{})
}

// The ST-LSTM adds the Δt/Δd-driven time and distance gates — the gate
// gradients ISSUE singles out as a likely bug site. The BPTT check sweeps
// all eight parameter groups (W, b, WxT, WtT, bT, WxD, WdD, bD).
func TestGradcheckSTLSTMCellBPTT(t *testing.T) {
	const inDim, hidDim, T = 3, 4, 3
	cell := nn.NewSTLSTMCell("stlstm", inDim, hidDim, rand.New(rand.NewSource(13)))
	xs := make([][]float64, T)
	gxs := make([][]float64, T)
	for s := range xs {
		xs[s] = check.RandomVector(inDim, 1, int64(50+s))
		gxs[s] = make([]float64, inDim)
	}
	dts := []float64{0.5, 1.5, 0.25}
	dds := []float64{2.0, 0.75, 1.25}
	h0 := check.RandomVector(hidDim, 0.5, 60)
	c0 := check.RandomVector(hidDim, 0.5, 61)
	gh0 := make([]float64, hidDim)
	gc0 := make([]float64, hidDim)
	w := check.ProbeWeights(hidDim, 62)

	f := func() float64 {
		cell.ZeroGrad()
		h, c := h0, c0
		caches := make([]*nn.STLSTMCache, T)
		for s := 0; s < T; s++ {
			h, c, caches[s] = cell.Forward(xs[s], h, c, dts[s], dds[s])
		}
		var loss float64
		for o, v := range h {
			loss += w[o] * v
		}
		dH := append([]float64(nil), w...)
		dC := make([]float64, hidDim)
		for s := T - 1; s >= 0; s-- {
			var dX []float64
			dX, dH, dC = cell.Backward(caches[s], dH, dC)
			copy(gxs[s], dX)
		}
		copy(gh0, dH)
		copy(gc0, dC)
		return loss
	}
	params := check.LayerParams(cell)
	for s := range xs {
		params = append(params, check.Param{Name: "x" + string(rune('0'+s)), Value: xs[s], Grad: gxs[s]})
	}
	params = append(params,
		check.Param{Name: "h0", Value: h0, Grad: gh0},
		check.Param{Name: "c0", Value: c0, Grad: gc0})
	check.Assert(t, f, params, check.Options{})
}

// Attention has no parameters of its own; the checked "parameters" are the
// query, keys and values the caller owns.
func TestGradcheckAttention(t *testing.T) {
	const dim, n = 4, 3
	att := &nn.Attention{Dim: dim}
	q := check.RandomVector(dim, 1, 70)
	gq := make([]float64, dim)
	keys := make([][]float64, n)
	values := make([][]float64, n)
	gk := make([][]float64, n)
	gv := make([][]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = check.RandomVector(dim, 1, int64(71+i))
		values[i] = check.RandomVector(dim, 1, int64(81+i))
		gk[i] = make([]float64, dim)
		gv[i] = make([]float64, dim)
	}
	w := check.ProbeWeights(dim, 90)

	f := func() float64 {
		out, cache := att.Forward(q, keys, values)
		var loss float64
		for o, v := range out {
			loss += w[o] * v
		}
		dQ, dK, dV := att.Backward(cache, w)
		copy(gq, dQ)
		for i := 0; i < n; i++ {
			copy(gk[i], dK[i])
			copy(gv[i], dV[i])
		}
		return loss
	}
	params := []check.Param{{Name: "q", Value: q, Grad: gq}}
	for i := 0; i < n; i++ {
		params = append(params,
			check.Param{Name: "k" + string(rune('0'+i)), Value: keys[i], Grad: gk[i]},
			check.Param{Name: "v" + string(rune('0'+i)), Value: values[i], Grad: gv[i]})
	}
	check.Assert(t, f, params, check.Options{})
}
