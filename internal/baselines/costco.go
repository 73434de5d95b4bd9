package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"tcss/internal/nn"
	"tcss/internal/tensor"
	"tcss/internal/train"
)

// CoSTCo (Liu et al., KDD 2019) is a convolutional tensor completion model:
// the three mode embeddings are stacked into a 3×r "image", a first
// convolution with kernel 3×1 mixes the modes at each rank position into c
// channels, a second convolution with kernel 1×r aggregates over rank
// positions, and a small fully connected head produces the sigmoid score.
// The shared convolution kernels preserve the low-rank structure while the
// nonlinearities capture factor interactions.
type CoSTCo struct {
	Channels int
	LR       float64

	emb [3]*nn.Embedding
	// conv1: Channels × 3 kernel + bias (shared across the r positions).
	w1, b1, gw1, gb1 []float64
	// conv2: Channels × (Channels × r) kernel + bias.
	w2, b2, gw2, gb2 []float64
	head             *nn.MLP
	rank             int
	fit              bool
}

// NewCoSTCo returns the CoSTCo baseline with the channel width used in the
// experiments.
func NewCoSTCo() *CoSTCo { return &CoSTCo{Channels: 8, LR: 0.01} }

// Name implements Recommender.
func (c *CoSTCo) Name() string { return "CoSTCo" }

// Fit implements Recommender. Training is a mini-batch run of the
// internal/train engine; the raw convolution kernels join the layer
// parameters as explicit engine groups.
func (c *CoSTCo) Fit(ctx *Context) error {
	x := ctx.Train
	r := ctx.Rank
	if r <= 0 {
		return fmt.Errorf("baselines: CoSTCo needs positive rank, got %d", r)
	}
	rng := train.NewRNG(ctx.Seed)
	c.build([3]int{x.DimI, x.DimJ, x.DimK}, r, rng.Rand)

	groups := layerGroups([]nn.Param{
		{Name: "costco.w1", Value: c.w1, Grad: c.gw1},
		{Name: "costco.b1", Value: c.b1, Grad: c.gb1},
		{Name: "costco.w2", Value: c.w2, Grad: c.gw2},
		{Name: "costco.b2", Value: c.b2, Grad: c.gb2},
	}, c.emb[0], c.emb[1], c.emb[2], c.head)
	if err := fitEngine(ctx, c.LR, groups, entryBatches(x, c.trainStep), rng); err != nil {
		return err
	}
	c.fit = true
	return nil
}

// build initializes the network for the given tensor dims and rank. Split
// from Fit so the gradient-check tests can construct a training-shaped model
// without running epochs.
func (c *CoSTCo) build(dims [3]int, r int, rng *rand.Rand) {
	c.rank = r
	ch := c.Channels
	names := [3]string{"user", "poi", "time"}
	for m := 0; m < 3; m++ {
		c.emb[m] = nn.NewEmbedding("costco."+names[m], dims[m], r, rng)
	}
	c.w1 = xavierSlice(ch*3, 3+ch, rng)
	c.b1 = make([]float64, ch)
	c.w2 = xavierSlice(ch*ch*r, ch*r+ch, rng)
	c.b2 = make([]float64, ch)
	// Small positive biases keep the ReLU units alive at initialization,
	// when the embedding products are still near zero.
	for i := range c.b1 {
		c.b1[i] = 0.1
	}
	for i := range c.b2 {
		c.b2[i] = 0.1
	}
	c.gw1 = make([]float64, len(c.w1))
	c.gb1 = make([]float64, ch)
	c.gw2 = make([]float64, len(c.w2))
	c.gb2 = make([]float64, ch)
	c.head = nn.NewMLP("costco.head", ch, []int{ch}, 1, nn.ReLU, rng)
}

func xavierSlice(n, fan int, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	limit := math.Sqrt(6 / float64(fan))
	for i := range w {
		w[i] = (2*rng.Float64() - 1) * limit
	}
	return w
}

// forward computes the network, returning the logit and intermediates.
// stack[m*r+t] is mode m's embedding at position t. pre1/out1 have ch·r
// entries (channel-major); pre2/out2 have ch entries.
type costcoCache struct {
	stack, pre1, out1, pre2, out2, headIn []float64
	logit                                 float64
}

func (c *CoSTCo) forward(i, j, k int) *costcoCache {
	cc := c.convs(i, j, k)
	cc.logit = c.head.Forward(cc.headIn)[0]
	return cc
}

// convs runs the two convolutions, leaving the head to the caller: training
// uses head.Forward (a Backward follows), Score uses head.Infer because it
// runs on several ranking workers at once.
func (c *CoSTCo) convs(i, j, k int) *costcoCache {
	r, ch := c.rank, c.Channels
	cc := &costcoCache{
		stack: make([]float64, 3*r),
		pre1:  make([]float64, ch*r),
		out1:  make([]float64, ch*r),
		pre2:  make([]float64, ch),
		out2:  make([]float64, ch),
	}
	copy(cc.stack, c.emb[0].Lookup(i))
	copy(cc.stack[r:], c.emb[1].Lookup(j))
	copy(cc.stack[2*r:], c.emb[2].Lookup(k))
	// Conv 1: mixes the 3 modes at each rank position t (kernel 3×1).
	for o := 0; o < ch; o++ {
		for t := 0; t < r; t++ {
			s := c.b1[o]
			for m := 0; m < 3; m++ {
				s += c.w1[o*3+m] * cc.stack[m*r+t]
			}
			cc.pre1[o*r+t] = s
			if s > 0 {
				cc.out1[o*r+t] = s
			}
		}
	}
	// Conv 2: aggregates all positions of all channels (kernel 1×r over
	// every input channel).
	for o := 0; o < ch; o++ {
		s := c.b2[o]
		base := o * ch * r
		for in := 0; in < ch; in++ {
			for t := 0; t < r; t++ {
				s += c.w2[base+in*r+t] * cc.out1[in*r+t]
			}
		}
		cc.pre2[o] = s
		if s > 0 {
			cc.out2[o] = s
		}
	}
	cc.headIn = cc.out2
	return cc
}

func (c *CoSTCo) trainStep(e tensor.Entry) float64 {
	cc := c.forward(e.I, e.J, e.K)
	pred := nn.SigmoidF(cc.logit)
	dLogit := pred - e.Val

	r, ch := c.rank, c.Channels
	dOut2 := c.head.Backward(cc.headIn, []float64{dLogit})
	// Conv2 backward.
	dOut1 := make([]float64, ch*r)
	for o := 0; o < ch; o++ {
		if cc.pre2[o] <= 0 {
			continue // ReLU gate
		}
		g := dOut2[o]
		c.gb2[o] += g
		base := o * ch * r
		for in := 0; in < ch; in++ {
			for t := 0; t < r; t++ {
				c.gw2[base+in*r+t] += g * cc.out1[in*r+t]
				dOut1[in*r+t] += g * c.w2[base+in*r+t]
			}
		}
	}
	// Conv1 backward.
	dStack := make([]float64, 3*r)
	for o := 0; o < ch; o++ {
		for t := 0; t < r; t++ {
			if cc.pre1[o*r+t] <= 0 {
				continue
			}
			g := dOut1[o*r+t]
			c.gb1[o] += g
			for m := 0; m < 3; m++ {
				c.gw1[o*3+m] += g * cc.stack[m*r+t]
				dStack[m*r+t] += g * c.w1[o*3+m]
			}
		}
	}
	c.emb[0].Accumulate(e.I, dStack[:r])
	c.emb[1].Accumulate(e.J, dStack[r:2*r])
	c.emb[2].Accumulate(e.K, dStack[2*r:])
	return logLoss(cc.logit, e.Val)
}

// Score implements Recommender.
func (c *CoSTCo) Score(i, j, k int) float64 {
	if !c.fit {
		panic("baselines: CoSTCo.Score before Fit")
	}
	return nn.SigmoidF(c.head.Infer(c.convs(i, j, k).headIn)[0])
}
