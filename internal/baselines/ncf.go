package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"tcss/internal/nn"
	"tcss/internal/tensor"
	"tcss/internal/train"
)

// NCF is Neural Collaborative Filtering (He et al., WWW 2017) extended to
// three modes as the paper describes (§V-B): the element-wise product of the
// user/POI/time GMF embeddings feeds the GMF path, the concatenation of three
// separate MLP embeddings feeds a multi-layer perceptron, and a final dense
// layer fuses both paths into a sigmoid score. Training uses binary
// cross-entropy on the observed positives plus an equal number of sampled
// negatives per epoch.
type NCF struct {
	Hidden []int
	LR     float64

	embGMF [3]*nn.Embedding
	embMLP [3]*nn.Embedding
	mlp    *nn.MLP
	fuse   *nn.Dense
	rank   int
	fit    bool
}

// NewNCF returns the NCF baseline with the architecture used in the
// experiments.
func NewNCF() *NCF { return &NCF{Hidden: []int{32, 16}, LR: 0.01} }

// Name implements Recommender.
func (n *NCF) Name() string { return "NCF" }

// Fit implements Recommender. Training is a mini-batch run of the
// internal/train engine over the network's flattened parameter groups.
func (n *NCF) Fit(ctx *Context) error {
	x := ctx.Train
	r := ctx.Rank
	if r <= 0 {
		return fmt.Errorf("baselines: NCF needs positive rank, got %d", r)
	}
	rng := train.NewRNG(ctx.Seed)
	n.build([3]int{x.DimI, x.DimJ, x.DimK}, r, rng.Rand)
	if err := fitEngine(ctx, n.LR, layerGroups(nil, n.layers()...), n.trainStep, rng); err != nil {
		return err
	}
	n.fit = true
	return nil
}

// batchSize is the gradient-accumulation batch of the neural baselines.
const batchSize = 64

// build initializes the network for the given tensor dims and rank. Split
// from Fit so the gradient-check tests can construct a training-shaped model
// without running epochs.
func (n *NCF) build(dims [3]int, r int, rng *rand.Rand) {
	n.rank = r
	names := [3]string{"user", "poi", "time"}
	for m := 0; m < 3; m++ {
		n.embGMF[m] = nn.NewEmbedding("ncf.gmf."+names[m], dims[m], r, rng)
		n.embMLP[m] = nn.NewEmbedding("ncf.mlp."+names[m], dims[m], r, rng)
	}
	n.mlp = nn.NewMLP("ncf.mlp", 3*r, n.Hidden, r, nn.ReLU, rng)
	n.fuse = nn.NewDense("ncf.fuse", 2*r, 1, rng)
}

// layers returns every trainable layer of the network.
func (n *NCF) layers() []nn.Layer {
	return []nn.Layer{
		n.embGMF[0], n.embGMF[1], n.embGMF[2],
		n.embMLP[0], n.embMLP[1], n.embMLP[2], n.mlp, n.fuse,
	}
}

// forward runs the two paths and returns the pre-sigmoid logit plus the
// intermediates needed for backprop.
func (n *NCF) forward(i, j, k int) (logit float64, gmf, mlpIn, mlpOut, fuseIn []float64) {
	return n.pass(i, j, k, n.mlp.Forward)
}

// pass is forward with the MLP pass to use made explicit: n.mlp.Forward when
// a Backward follows, n.mlp.Infer when scoring — Score runs on several
// ranking workers at once and must not record activations in the shared MLP.
func (n *NCF) pass(i, j, k int, mlp func([]float64) []float64) (logit float64, gmf, mlpIn, mlpOut, fuseIn []float64) {
	r := n.rank
	eu, ej, ek := n.embGMF[0].Lookup(i), n.embGMF[1].Lookup(j), n.embGMF[2].Lookup(k)
	gmf = make([]float64, r)
	for t := 0; t < r; t++ {
		gmf[t] = eu[t] * ej[t] * ek[t]
	}
	mlpIn = make([]float64, 3*r)
	copy(mlpIn, n.embMLP[0].Lookup(i))
	copy(mlpIn[r:], n.embMLP[1].Lookup(j))
	copy(mlpIn[2*r:], n.embMLP[2].Lookup(k))
	mlpOut = mlp(mlpIn)
	fuseIn = make([]float64, 2*r)
	copy(fuseIn, gmf)
	copy(fuseIn[r:], mlpOut)
	logit = n.fuse.Forward(fuseIn)[0]
	return logit, gmf, mlpIn, mlpOut, fuseIn
}

func (n *NCF) trainStep(e tensor.Entry) float64 {
	i, j, k := e.I, e.J, e.K
	logit, _, mlpIn, _, fuseIn := n.forward(i, j, k)
	pred := nn.SigmoidF(logit)
	// BCE gradient w.r.t. the logit is (pred − target).
	dLogit := pred - e.Val

	dFuseIn := n.fuse.Backward(fuseIn, []float64{dLogit})
	r := n.rank
	// GMF path: route gradient into the three GMF embeddings.
	eu, ej, ek := n.embGMF[0].Lookup(i), n.embGMF[1].Lookup(j), n.embGMF[2].Lookup(k)
	du, dj, dk := make([]float64, r), make([]float64, r), make([]float64, r)
	for t := 0; t < r; t++ {
		g := dFuseIn[t]
		du[t] = g * ej[t] * ek[t]
		dj[t] = g * eu[t] * ek[t]
		dk[t] = g * eu[t] * ej[t]
	}
	n.embGMF[0].Accumulate(i, du)
	n.embGMF[1].Accumulate(j, dj)
	n.embGMF[2].Accumulate(k, dk)
	// MLP path.
	dMLPIn := n.mlp.Backward(mlpIn, dFuseIn[r:])
	n.embMLP[0].Accumulate(i, dMLPIn[:r])
	n.embMLP[1].Accumulate(j, dMLPIn[r:2*r])
	n.embMLP[2].Accumulate(k, dMLPIn[2*r:])
	return logLoss(logit, e.Val)
}

// Score implements Recommender.
func (n *NCF) Score(i, j, k int) float64 {
	if !n.fit {
		panic("baselines: NCF.Score before Fit")
	}
	logit, _, _, _, _ := n.pass(i, j, k, n.mlp.Infer)
	return nn.SigmoidF(logit)
}

// NTM is the Neural Tensor Machine (Chen & Li, IJCAI 2020): a generalized CP
// term plus a tensorized MLP over the element-wise product of the mode
// embeddings, capturing nonlinear factor interactions.
type NTM struct {
	Hidden []int
	LR     float64

	emb  [3]*nn.Embedding
	mlp  *nn.MLP
	w    *nn.Dense // generalized-CP linear head over the product vector
	rank int
	fit  bool
}

// NewNTM returns the NTM baseline.
func NewNTM() *NTM { return &NTM{Hidden: []int{32}, LR: 0.01} }

// Name implements Recommender.
func (n *NTM) Name() string { return "NTM" }

// Fit implements Recommender. Training is a mini-batch run of the
// internal/train engine over the network's flattened parameter groups.
func (n *NTM) Fit(ctx *Context) error {
	x := ctx.Train
	r := ctx.Rank
	if r <= 0 {
		return fmt.Errorf("baselines: NTM needs positive rank, got %d", r)
	}
	n.rank = r
	rng := train.NewRNG(ctx.Seed)
	dims := [3]int{x.DimI, x.DimJ, x.DimK}
	names := [3]string{"user", "poi", "time"}
	for m := 0; m < 3; m++ {
		n.emb[m] = nn.NewEmbedding("ntm."+names[m], dims[m], r, rng.Rand)
	}
	n.mlp = nn.NewMLP("ntm.mlp", r, n.Hidden, 1, nn.ReLU, rng.Rand)
	n.w = nn.NewDense("ntm.gcp", r, 1, rng.Rand)

	groups := layerGroups(nil, n.emb[0], n.emb[1], n.emb[2], n.mlp, n.w)
	if err := fitEngine(ctx, n.LR, groups, n.trainStep, rng); err != nil {
		return err
	}
	n.fit = true
	return nil
}

func (n *NTM) product(i, j, k int) []float64 {
	r := n.rank
	eu, ej, ek := n.emb[0].Lookup(i), n.emb[1].Lookup(j), n.emb[2].Lookup(k)
	prod := make([]float64, r)
	for t := 0; t < r; t++ {
		prod[t] = eu[t] * ej[t] * ek[t]
	}
	return prod
}

func (n *NTM) trainStep(e tensor.Entry) float64 {
	prod := n.product(e.I, e.J, e.K)
	logit := n.w.Forward(prod)[0] + n.mlp.Forward(prod)[0]
	pred := nn.SigmoidF(logit)
	dLogit := pred - e.Val

	dProdW := n.w.Backward(prod, []float64{dLogit})
	dProdM := n.mlp.Backward(prod, []float64{dLogit})
	r := n.rank
	eu, ej, ek := n.emb[0].Lookup(e.I), n.emb[1].Lookup(e.J), n.emb[2].Lookup(e.K)
	du, dj, dk := make([]float64, r), make([]float64, r), make([]float64, r)
	for t := 0; t < r; t++ {
		g := dProdW[t] + dProdM[t]
		du[t] = g * ej[t] * ek[t]
		dj[t] = g * eu[t] * ek[t]
		dk[t] = g * eu[t] * ej[t]
	}
	n.emb[0].Accumulate(e.I, du)
	n.emb[1].Accumulate(e.J, dj)
	n.emb[2].Accumulate(e.K, dk)
	return logLoss(logit, e.Val)
}

// Score implements Recommender.
func (n *NTM) Score(i, j, k int) float64 {
	if !n.fit {
		panic("baselines: NTM.Score before Fit")
	}
	prod := n.product(i, j, k)
	return nn.SigmoidF(n.w.Forward(prod)[0] + n.mlp.Infer(prod)[0])
}

// logLoss is the numerically stable binary cross-entropy reported per
// training example (and checked directly by the gradient tests).
func logLoss(logit, target float64) float64 {
	// log(1+exp(-z)) for target 1, log(1+exp(z)) for target 0.
	z := logit
	if target > 0.5 {
		z = -z
	}
	if z > 30 {
		return z
	}
	return math.Log1p(math.Exp(z))
}
