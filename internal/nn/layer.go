// Package nn is a minimal neural-network substrate with hand-written
// reverse-mode gradients: dense layers, activations, embeddings, a sequential
// MLP, recurrent cells (the vanilla RNN of STRNN and the spatio-temporal
// gated LSTM of STGN), and scaled dot-product attention. It exists so the
// paper's neural baselines (NCF, NTM, CoSTCo, STRNN, STGN, STAN) can be
// implemented from scratch without any framework; every layer exposes its
// parameters as named flat slices consumable by internal/opt's Adam.
//
// Layers operate on single examples ([]float64); the baselines train them
// through internal/train, which batches by accumulating gradients across
// examples before each optimizer step.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is a differentiable unit. Forward consumes an input vector and
// returns the output. Backward consumes the upstream gradient dOut together
// with the exact input x previously passed to Forward, accumulates parameter
// gradients internally, and returns the gradient with respect to x.
type Layer interface {
	Forward(x []float64) []float64
	Backward(x, dOut []float64) []float64
	// Params returns the named parameter groups and their gradient
	// accumulators, index-aligned.
	Params() []Param
	// ZeroGrad clears all gradient accumulators.
	ZeroGrad()
	OutDim(inDim int) int
}

// Param is one named parameter group with its gradient accumulator.
type Param struct {
	Name  string
	Value []float64
	Grad  []float64
}

// Dense is a fully connected layer y = W·x + b with W stored row-major
// (out × in).
type Dense struct {
	In, Out int
	W, B    []float64
	GradW   []float64
	GradB   []float64
	name    string
}

// NewDense returns a dense layer with Xavier/Glorot-uniform initialized
// weights and zero bias.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense %q invalid dims %d->%d", name, in, out))
	}
	d := &Dense{
		In: in, Out: out,
		W:     make([]float64, out*in),
		B:     make([]float64, out),
		GradW: make([]float64, out*in),
		GradB: make([]float64, out),
		name:  name,
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = (2*rng.Float64() - 1) * limit
	}
	return d
}

// Forward computes W·x + b.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense %q got input %d, want %d", d.name, len(x), d.In))
	}
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In : (o+1)*d.In]
		s := d.B[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		y[o] = s
	}
	return y
}

// Backward accumulates dW += dOut⊗x, dB += dOut and returns Wᵀ·dOut.
func (d *Dense) Backward(x, dOut []float64) []float64 {
	dx := make([]float64, d.In)
	for o, g := range dOut {
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.GradW[o*d.In : (o+1)*d.In]
		d.GradB[o] += g
		for i, xi := range x {
			grow[i] += g * xi
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: d.name + ".W", Value: d.W, Grad: d.GradW},
		{Name: d.name + ".b", Value: d.B, Grad: d.GradB},
	}
}

// ZeroGrad implements Layer.
func (d *Dense) ZeroGrad() {
	zero(d.GradW)
	zero(d.GradB)
}

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.Out }

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Activation is an element-wise nonlinearity layer.
type Activation struct {
	Kind ActKind
}

// ActKind selects the nonlinearity of an Activation layer.
type ActKind int

// Supported activations.
const (
	ReLU ActKind = iota
	Sigmoid
	Tanh
)

// Forward applies the nonlinearity element-wise.
func (a *Activation) Forward(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = actForward(a.Kind, v)
	}
	return y
}

// Backward multiplies dOut by the derivative evaluated at the forward input.
func (a *Activation) Backward(x, dOut []float64) []float64 {
	dx := make([]float64, len(x))
	for i, v := range x {
		dx[i] = dOut[i] * actDeriv(a.Kind, v)
	}
	return dx
}

// Params implements Layer; activations have none.
func (a *Activation) Params() []Param { return nil }

// ZeroGrad implements Layer.
func (a *Activation) ZeroGrad() {}

// OutDim implements Layer.
func (a *Activation) OutDim(inDim int) int { return inDim }

func actForward(k ActKind, v float64) float64 {
	switch k {
	case ReLU:
		if v > 0 {
			return v
		}
		return 0
	case Sigmoid:
		return SigmoidF(v)
	case Tanh:
		return math.Tanh(v)
	}
	panic(fmt.Sprintf("nn: unknown activation %d", int(k)))
}

func actDeriv(k ActKind, v float64) float64 {
	switch k {
	case ReLU:
		if v > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		s := SigmoidF(v)
		return s * (1 - s)
	case Tanh:
		t := math.Tanh(v)
		return 1 - t*t
	}
	panic(fmt.Sprintf("nn: unknown activation %d", int(k)))
}

// SigmoidF is the scalar logistic function, exported because the tensor
// completion models squash raw scores with it.
func SigmoidF(v float64) float64 {
	// Numerically stable in both tails.
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}
