package nn

// End-to-end learning tests: the layer stack with its hand-written gradients
// must actually learn. Each test trains a tiny network on a task with a
// known solution and asserts the final loss or accuracy.

import (
	"math"
	"math/rand"
	"testing"

	"tcss/internal/opt"
)

// step applies one optimizer step to every parameter group of the layers,
// then zeroes their gradients.
func step(o *opt.Adam, layers ...Layer) {
	for _, l := range layers {
		for _, p := range l.Params() {
			o.Step(p.Name, p.Value, p.Grad)
		}
		l.ZeroGrad()
	}
}

// TestMLPLearnsXOR: the canonical non-linearly-separable task.
func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP("xor", 2, []int{8}, 1, Tanh, rng)
	optim := opt.NewAdam(0.05, 0)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 800; epoch++ {
		for s, x := range inputs {
			out := m.Forward(x)
			pred := SigmoidF(out[0])
			m.Backward(x, []float64{pred - targets[s]})
		}
		step(optim, m)
	}
	for s, x := range inputs {
		pred := SigmoidF(m.Forward(x)[0])
		if math.Abs(pred-targets[s]) > 0.25 {
			t.Fatalf("XOR(%v) = %.3f, want %g", x, pred, targets[s])
		}
	}
}

// TestRNNLearnsParity: a vanilla RNN can track the running parity of a short
// bit sequence, requiring genuine state.
func TestRNNLearnsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const hid = 8
	cell := NewRNNCell("parity", 1, hid, rng)
	head := NewDense("parity.head", hid, 1, rng)
	optim := opt.NewAdam(0.02, 0)

	sample := func(r *rand.Rand) ([]float64, float64) {
		bits := make([]float64, 4)
		var parity float64
		for i := range bits {
			bits[i] = float64(r.Intn(2))
			parity += bits[i]
		}
		return bits, math.Mod(parity, 2)
	}
	forward := func(bits []float64) (float64, []*RNNCache, []float64) {
		h := make([]float64, hid)
		caches := make([]*RNNCache, len(bits))
		for i, bit := range bits {
			h, caches[i] = cell.Forward([]float64{bit}, h)
		}
		return head.Forward(h)[0], caches, h
	}

	trainRng := rand.New(rand.NewSource(3))
	for epoch := 0; epoch < 4000; epoch++ {
		bits, parity := sample(trainRng)
		logit, caches, hLast := forward(bits)
		pred := SigmoidF(logit)
		dH := head.Backward(hLast, []float64{pred - parity})
		// Full backpropagation through time.
		for i := len(caches) - 1; i >= 0; i-- {
			_, dH = cell.Backward(caches[i], dH)
		}
		for _, p := range append(cell.Params(), head.Params()...) {
			optim.Step(p.Name, p.Value, p.Grad)
		}
		cell.ZeroGrad()
		head.ZeroGrad()
	}

	testRng := rand.New(rand.NewSource(4))
	correct := 0
	const trials = 100
	for n := 0; n < trials; n++ {
		bits, parity := sample(testRng)
		logit, _, _ := forward(bits)
		if (SigmoidF(logit) > 0.5) == (parity > 0.5) {
			correct++
		}
	}
	if correct < 90 {
		t.Fatalf("RNN parity accuracy %d/%d, want ≥ 90", correct, trials)
	}
}

// TestAttentionLearnsLookup: with trainable value vectors, attention can
// learn to retrieve the value associated with a query key.
func TestAttentionLearnsLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 6
	const vocab = 4
	keys := NewEmbedding("keys", vocab, dim, rng)
	values := NewEmbedding("values", vocab, dim, rng)
	query := NewEmbedding("query", vocab, dim, rng)
	head := NewDense("head", dim, vocab, rng)
	attn := &Attention{Dim: dim}
	optim := opt.NewAdam(0.02, 0)

	trainRng := rand.New(rand.NewSource(9))
	for epoch := 0; epoch < 3000; epoch++ {
		target := trainRng.Intn(vocab)
		ks := make([][]float64, vocab)
		vs := make([][]float64, vocab)
		for i := 0; i < vocab; i++ {
			ks[i] = keys.Lookup(i)
			vs[i] = values.Lookup(i)
		}
		q := query.Lookup(target)
		out, cache := attn.Forward(q, ks, vs)
		logits := head.Forward(out)
		// Softmax cross-entropy gradient.
		maxL := logits[0]
		for _, l := range logits {
			if l > maxL {
				maxL = l
			}
		}
		var z float64
		probs := make([]float64, vocab)
		for i, l := range logits {
			probs[i] = math.Exp(l - maxL)
			z += probs[i]
		}
		dLogits := make([]float64, vocab)
		for i := range probs {
			probs[i] /= z
			dLogits[i] = probs[i]
			if i == target {
				dLogits[i] -= 1
			}
		}
		dOut := head.Backward(out, dLogits)
		dQ, dK, dV := attn.Backward(cache, dOut)
		query.Accumulate(target, dQ)
		for i := 0; i < vocab; i++ {
			keys.Accumulate(i, dK[i])
			values.Accumulate(i, dV[i])
		}
		step(optim, keys, values, query, head)
	}

	correct := 0
	for target := 0; target < vocab; target++ {
		ks := make([][]float64, vocab)
		vs := make([][]float64, vocab)
		for i := 0; i < vocab; i++ {
			ks[i] = keys.Lookup(i)
			vs[i] = values.Lookup(i)
		}
		out, _ := attn.Forward(query.Lookup(target), ks, vs)
		logits := head.Forward(out)
		best := 0
		for i, l := range logits {
			if l > logits[best] {
				best = i
			}
		}
		if best == target {
			correct++
		}
	}
	if correct != vocab {
		t.Fatalf("attention lookup got %d/%d", correct, vocab)
	}
}
