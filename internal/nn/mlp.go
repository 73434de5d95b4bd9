package nn

import (
	"fmt"
	"math/rand"
)

// MLP is a sequential stack of layers trained as a unit. Forward caches the
// intermediate inputs so Backward can be called immediately afterwards for
// the same example (the usual single-example training pattern here).
type MLP struct {
	Layers []Layer
	inputs [][]float64 // inputs[i] is the input given to Layers[i]
}

// NewMLP builds a multi-layer perceptron with the given hidden sizes, hidden
// activation act, and a linear output layer of size outDim.
func NewMLP(name string, inDim int, hidden []int, outDim int, act ActKind, rng *rand.Rand) *MLP {
	m := &MLP{}
	cur := inDim
	for li, h := range hidden {
		m.Layers = append(m.Layers, NewDense(fmt.Sprintf("%s.fc%d", name, li), cur, h, rng))
		m.Layers = append(m.Layers, &Activation{Kind: act})
		cur = h
	}
	m.Layers = append(m.Layers, NewDense(name+".out", cur, outDim, rng))
	return m
}

// Forward runs the stack and caches intermediates for Backward.
func (m *MLP) Forward(x []float64) []float64 {
	m.inputs = m.inputs[:0]
	for _, l := range m.Layers {
		m.inputs = append(m.inputs, x)
		x = l.Forward(x)
	}
	return x
}

// Infer runs the stack like Forward — the same layers in the same order, so
// the same bits — but records nothing, which makes it safe to call from
// several goroutines at once (ranking workers scoring a fitted model).
// Backward must not follow it.
func (m *MLP) Infer(x []float64) []float64 {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward back-propagates dOut through the stack, accumulating parameter
// gradients, and returns the gradient w.r.t. the original input. It must
// follow a Forward call on the same example.
func (m *MLP) Backward(x, dOut []float64) []float64 {
	if len(m.inputs) != len(m.Layers) {
		panic("nn: MLP.Backward without a preceding Forward")
	}
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dOut = m.Layers[i].Backward(m.inputs[i], dOut)
	}
	return dOut
}

// Params implements Layer by concatenating all sub-layer parameters.
func (m *MLP) Params() []Param {
	var out []Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad implements Layer.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// OutDim implements Layer.
func (m *MLP) OutDim(inDim int) int {
	for _, l := range m.Layers {
		inDim = l.OutDim(inDim)
	}
	return inDim
}
