package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// RNNCell is a vanilla recurrent cell h' = tanh(Wx·x + Wh·h + b). The STRNN
// baseline composes it with spatial/temporal transition matrices. Forward
// returns a cache that must be passed back to Backward; callers implementing
// backpropagation-through-time keep one cache per step.
type RNNCell struct {
	InDim, HidDim  int
	Wx, Wh, B      []float64
	GradWx, GradWh []float64
	GradB          []float64
	name           string
}

// NewRNNCell returns a cell with Xavier-initialized weights.
func NewRNNCell(name string, inDim, hidDim int, rng *rand.Rand) *RNNCell {
	c := &RNNCell{
		InDim: inDim, HidDim: hidDim,
		Wx: xavier(hidDim*inDim, inDim+hidDim, rng), Wh: xavier(hidDim*hidDim, 2*hidDim, rng),
		B:      make([]float64, hidDim),
		GradWx: make([]float64, hidDim*inDim), GradWh: make([]float64, hidDim*hidDim),
		GradB: make([]float64, hidDim),
		name:  name,
	}
	return c
}

func xavier(n, fan int, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	limit := math.Sqrt(6.0 / float64(fan))
	for i := range w {
		w[i] = (2*rng.Float64() - 1) * limit
	}
	return w
}

// RNNCache holds the intermediates of one RNNCell.Forward step.
type RNNCache struct {
	X, HPrev, H []float64
}

// Forward advances the hidden state by one step.
func (c *RNNCell) Forward(x, hPrev []float64) ([]float64, *RNNCache) {
	if len(x) != c.InDim || len(hPrev) != c.HidDim {
		panic(fmt.Sprintf("nn: RNNCell %q dims: x=%d h=%d want %d/%d", c.name, len(x), len(hPrev), c.InDim, c.HidDim))
	}
	h := make([]float64, c.HidDim)
	for o := 0; o < c.HidDim; o++ {
		s := c.B[o]
		rx := c.Wx[o*c.InDim : (o+1)*c.InDim]
		for i, xi := range x {
			s += rx[i] * xi
		}
		rh := c.Wh[o*c.HidDim : (o+1)*c.HidDim]
		for i, hi := range hPrev {
			s += rh[i] * hi
		}
		h[o] = math.Tanh(s)
	}
	return h, &RNNCache{X: x, HPrev: hPrev, H: h}
}

// Backward accumulates parameter gradients for one step and returns the
// gradients w.r.t. the step input and the previous hidden state.
func (c *RNNCell) Backward(cache *RNNCache, dH []float64) (dX, dHPrev []float64) {
	dX = make([]float64, c.InDim)
	dHPrev = make([]float64, c.HidDim)
	for o, g := range dH {
		// Through tanh.
		gz := g * (1 - cache.H[o]*cache.H[o])
		c.GradB[o] += gz
		rx := c.Wx[o*c.InDim : (o+1)*c.InDim]
		gx := c.GradWx[o*c.InDim : (o+1)*c.InDim]
		for i, xi := range cache.X {
			gx[i] += gz * xi
			dX[i] += gz * rx[i]
		}
		rh := c.Wh[o*c.HidDim : (o+1)*c.HidDim]
		gh := c.GradWh[o*c.HidDim : (o+1)*c.HidDim]
		for i, hi := range cache.HPrev {
			gh[i] += gz * hi
			dHPrev[i] += gz * rh[i]
		}
	}
	return dX, dHPrev
}

// Params implements Layer-style parameter exposure.
func (c *RNNCell) Params() []Param {
	return []Param{
		{Name: c.name + ".Wx", Value: c.Wx, Grad: c.GradWx},
		{Name: c.name + ".Wh", Value: c.Wh, Grad: c.GradWh},
		{Name: c.name + ".b", Value: c.B, Grad: c.GradB},
	}
}
