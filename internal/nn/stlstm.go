package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// STLSTMCell is the spatio-temporal gated LSTM of STGN (Zhao et al., AAAI
// 2019): a standard LSTM extended with two extra gates driven by the time
// interval Δt and travel distance Δd between consecutive check-ins,
//
//	t̂ = σ(W_xt·x + w_t·Δt + b_t)   (time gate)
//	d̂ = σ(W_xd·x + w_d·Δd + b_d)   (distance gate)
//	c' = f ⊙ c + i ⊙ t̂ ⊙ d̂ ⊙ g
//	h' = o ⊙ tanh(c')
//
// so new content only enters the memory when both the temporal and the
// spatial context allow it. The base gates are the standard LSTM's: input,
// forget, output and candidate, stacked in that order in W and B.
type STLSTMCell struct {
	InDim, HidDim int

	// Base LSTM parameters: (4·Hid) × (In+Hid) weights + bias.
	W, B         []float64
	GradW, GradB []float64

	// Spatio-temporal gates: per-gate input weights (Hid × In), the scalar
	// interval weights (Hid), and biases (Hid).
	WxT, WtT, BT             []float64
	WxD, WdD, BD             []float64
	GradWxT, GradWtT, GradBT []float64
	GradWxD, GradWdD, GradBD []float64

	name string
}

// NewSTLSTMCell returns a spatio-temporal LSTM cell with Xavier weights and
// forget bias 1.
func NewSTLSTMCell(name string, inDim, hidDim int, rng *rand.Rand) *STLSTMCell {
	cols := inDim + hidDim
	c := &STLSTMCell{
		InDim: inDim, HidDim: hidDim,
		W:     xavier(4*hidDim*cols, cols+hidDim, rng),
		B:     make([]float64, 4*hidDim),
		GradW: make([]float64, 4*hidDim*cols), GradB: make([]float64, 4*hidDim),
		WxT: xavier(hidDim*inDim, inDim+1, rng), WtT: xavier(hidDim, 2, rng), BT: make([]float64, hidDim),
		WxD: xavier(hidDim*inDim, inDim+1, rng), WdD: xavier(hidDim, 2, rng), BD: make([]float64, hidDim),
		GradWxT: make([]float64, hidDim*inDim), GradWtT: make([]float64, hidDim), GradBT: make([]float64, hidDim),
		GradWxD: make([]float64, hidDim*inDim), GradWdD: make([]float64, hidDim), GradBD: make([]float64, hidDim),
		name: name,
	}
	for i := hidDim; i < 2*hidDim; i++ { // forget gate bias
		c.B[i] = 1
	}
	return c
}

// STLSTMCache holds the intermediates of one forward step.
type STLSTMCache struct {
	X, XH, CPrev []float64
	Dt, Dd       float64
	I, F, O, G   []float64
	TGate, DGate []float64
	C, TanhC     []float64
}

// Forward advances (h, c) by one step given the input x and the
// spatio-temporal context (Δt, Δd).
func (c *STLSTMCell) Forward(x, hPrev, cPrev []float64, dt, dd float64) (h, cNew []float64, cache *STLSTMCache) {
	if len(x) != c.InDim || len(hPrev) != c.HidDim || len(cPrev) != c.HidDim {
		panic(fmt.Sprintf("nn: STLSTMCell %q dims: x=%d h=%d c=%d", c.name, len(x), len(hPrev), len(cPrev)))
	}
	hid := c.HidDim
	cols := c.InDim + hid
	xh := make([]float64, cols)
	copy(xh, x)
	copy(xh[c.InDim:], hPrev)

	pre := make([]float64, 4*hid)
	for o := 0; o < 4*hid; o++ {
		row := c.W[o*cols : (o+1)*cols]
		s := c.B[o]
		for i, v := range xh {
			s += row[i] * v
		}
		pre[o] = s
	}
	cache = &STLSTMCache{
		X: x, XH: xh, CPrev: cPrev, Dt: dt, Dd: dd,
		I: make([]float64, hid), F: make([]float64, hid), O: make([]float64, hid), G: make([]float64, hid),
		TGate: make([]float64, hid), DGate: make([]float64, hid),
		C: make([]float64, hid), TanhC: make([]float64, hid),
	}
	h = make([]float64, hid)
	cNew = cache.C
	for j := 0; j < hid; j++ {
		cache.I[j] = SigmoidF(pre[j])
		cache.F[j] = SigmoidF(pre[hid+j])
		cache.O[j] = SigmoidF(pre[2*hid+j])
		cache.G[j] = math.Tanh(pre[3*hid+j])

		st := c.BT[j] + c.WtT[j]*dt
		sd := c.BD[j] + c.WdD[j]*dd
		rowT := c.WxT[j*c.InDim : (j+1)*c.InDim]
		rowD := c.WxD[j*c.InDim : (j+1)*c.InDim]
		for i, xi := range x {
			st += rowT[i] * xi
			sd += rowD[i] * xi
		}
		cache.TGate[j] = SigmoidF(st)
		cache.DGate[j] = SigmoidF(sd)

		cache.C[j] = cache.F[j]*cPrev[j] + cache.I[j]*cache.TGate[j]*cache.DGate[j]*cache.G[j]
		cache.TanhC[j] = math.Tanh(cache.C[j])
		h[j] = cache.O[j] * cache.TanhC[j]
	}
	return h, cNew, cache
}

// Backward accumulates parameter gradients for one step and returns the
// gradients w.r.t. x, hPrev and cPrev (the Δt/Δd scalars are data, not
// parameters, so their gradients are not returned).
func (c *STLSTMCell) Backward(cache *STLSTMCache, dH, dC []float64) (dX, dHPrev, dCPrev []float64) {
	hid := c.HidDim
	cols := c.InDim + hid
	dPre := make([]float64, 4*hid)
	dCPrev = make([]float64, hid)
	dX = make([]float64, c.InDim)
	for j := 0; j < hid; j++ {
		dO := dH[j] * cache.TanhC[j]
		dCj := dC[j] + dH[j]*cache.O[j]*(1-cache.TanhC[j]*cache.TanhC[j])
		td := cache.TGate[j] * cache.DGate[j]
		dI := dCj * td * cache.G[j]
		dF := dCj * cache.CPrev[j]
		dG := dCj * cache.I[j] * td
		dT := dCj * cache.I[j] * cache.DGate[j] * cache.G[j]
		dD := dCj * cache.I[j] * cache.TGate[j] * cache.G[j]
		dCPrev[j] = dCj * cache.F[j]

		dPre[j] = dI * cache.I[j] * (1 - cache.I[j])
		dPre[hid+j] = dF * cache.F[j] * (1 - cache.F[j])
		dPre[2*hid+j] = dO * cache.O[j] * (1 - cache.O[j])
		dPre[3*hid+j] = dG * (1 - cache.G[j]*cache.G[j])

		// Spatio-temporal gate pre-activations.
		gt := dT * cache.TGate[j] * (1 - cache.TGate[j])
		gd := dD * cache.DGate[j] * (1 - cache.DGate[j])
		c.GradBT[j] += gt
		c.GradBD[j] += gd
		c.GradWtT[j] += gt * cache.Dt
		c.GradWdD[j] += gd * cache.Dd
		rowT := c.WxT[j*c.InDim : (j+1)*c.InDim]
		rowD := c.WxD[j*c.InDim : (j+1)*c.InDim]
		growT := c.GradWxT[j*c.InDim : (j+1)*c.InDim]
		growD := c.GradWxD[j*c.InDim : (j+1)*c.InDim]
		for i, xi := range cache.X {
			growT[i] += gt * xi
			growD[i] += gd * xi
			dX[i] += gt*rowT[i] + gd*rowD[i]
		}
	}
	dXH := make([]float64, cols)
	for o, g := range dPre {
		if g == 0 {
			continue
		}
		row := c.W[o*cols : (o+1)*cols]
		grow := c.GradW[o*cols : (o+1)*cols]
		c.GradB[o] += g
		for i, v := range cache.XH {
			grow[i] += g * v
			dXH[i] += g * row[i]
		}
	}
	for i := 0; i < c.InDim; i++ {
		dX[i] += dXH[i]
	}
	dHPrev = dXH[c.InDim:]
	return dX, dHPrev, dCPrev
}

// Params implements Layer-style parameter exposure.
func (c *STLSTMCell) Params() []Param {
	return []Param{
		{Name: c.name + ".W", Value: c.W, Grad: c.GradW},
		{Name: c.name + ".b", Value: c.B, Grad: c.GradB},
		{Name: c.name + ".WxT", Value: c.WxT, Grad: c.GradWxT},
		{Name: c.name + ".WtT", Value: c.WtT, Grad: c.GradWtT},
		{Name: c.name + ".bT", Value: c.BT, Grad: c.GradBT},
		{Name: c.name + ".WxD", Value: c.WxD, Grad: c.GradWxD},
		{Name: c.name + ".WdD", Value: c.WdD, Grad: c.GradWdD},
		{Name: c.name + ".bD", Value: c.BD, Grad: c.GradBD},
	}
}
