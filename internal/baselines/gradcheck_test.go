// Differential verification of the gradient-trained baselines through the
// internal/check harness, plus residual cross-checks for the ALS solvers.
// This file lives in the internal test package so it can reach trainStep and
// the un-exported network internals; check itself does not import baselines,
// so no cycle arises.
package baselines

import (
	"math"
	"math/rand"
	"testing"

	"tcss/internal/check"
	"tcss/internal/nn"
	"tcss/internal/tensor"
)

// gradcheckEntries exercises both BCE branches: an observed positive and a
// sampled negative.
var gradcheckEntries = []tensor.Entry{
	{I: 1, J: 2, K: 3, Val: 1},
	{I: 4, J: 0, K: 1, Val: 0},
}

func layerCheckParams(layers []nn.Layer) []check.Param {
	var out []check.Param
	for _, l := range layers {
		for _, p := range l.Params() {
			out = append(out, check.Param{Name: p.Name, Value: p.Value, Grad: p.Grad})
		}
	}
	return out
}

// TestGradcheckNCF verifies NCF.trainStep's backward pass — both the GMF
// product routing and the MLP path — against central differences of the BCE
// loss it descends.
func TestGradcheckNCF(t *testing.T) {
	n := NewNCF()
	n.build([3]int{6, 5, 4}, 3, rand.New(rand.NewSource(3)))
	layers := n.layers()
	params := layerCheckParams(layers)
	for _, e := range gradcheckEntries {
		e := e
		f := func() float64 {
			for _, l := range layers {
				l.ZeroGrad()
			}
			n.trainStep(e)
			logit, _, _, _, _ := n.forward(e.I, e.J, e.K)
			return logLoss(logit, e.Val)
		}
		check.Assert(t, f, params, check.Options{})
	}
}

// TestGradcheckNTM verifies NTM's generalized-CP + MLP gradient, including
// the shared dProd routing into all three embeddings.
func TestGradcheckNTM(t *testing.T) {
	n := NewNTM()
	rng := rand.New(rand.NewSource(5))
	n.rank = 3
	dims := [3]int{6, 5, 4}
	names := [3]string{"user", "poi", "time"}
	for m := 0; m < 3; m++ {
		n.emb[m] = nn.NewEmbedding("ntm."+names[m], dims[m], 3, rng)
	}
	n.mlp = nn.NewMLP("ntm.mlp", 3, n.Hidden, 1, nn.ReLU, rng)
	n.w = nn.NewDense("ntm.gcp", 3, 1, rng)
	layers := []nn.Layer{n.emb[0], n.emb[1], n.emb[2], n.mlp, n.w}
	params := layerCheckParams(layers)
	// At init the embedding products are ~0, parking every ReLU
	// pre-activation exactly on its zero bias — the kink, where central
	// differences are meaningless. Jitter all parameters to a generic point.
	for _, p := range params {
		for i, v := range check.RandomVector(len(p.Value), 0.3, 17) {
			p.Value[i] += v
		}
	}
	for _, e := range gradcheckEntries {
		e := e
		f := func() float64 {
			for _, l := range layers {
				l.ZeroGrad()
			}
			n.trainStep(e)
			prod := n.product(e.I, e.J, e.K)
			return logLoss(n.w.Forward(prod)[0]+n.mlp.Forward(prod)[0], e.Val)
		}
		check.Assert(t, f, params, check.Options{})
	}
}

// TestGradcheckCoSTCo verifies the hand-written convolution backward passes
// (conv1 mode mixing, conv2 rank aggregation, ReLU gates) plus the head MLP
// and embedding routing.
func TestGradcheckCoSTCo(t *testing.T) {
	c := NewCoSTCo()
	c.build([3]int{6, 5, 4}, 3, rand.New(rand.NewSource(7)))
	params := layerCheckParams([]nn.Layer{c.emb[0], c.emb[1], c.emb[2], c.head})
	params = append(params,
		check.Param{Name: "costco.w1", Value: c.w1, Grad: c.gw1},
		check.Param{Name: "costco.b1", Value: c.b1, Grad: c.gb1},
		check.Param{Name: "costco.w2", Value: c.w2, Grad: c.gw2},
		check.Param{Name: "costco.b2", Value: c.b2, Grad: c.gb2})
	for _, e := range gradcheckEntries {
		e := e
		f := func() float64 {
			c.zeroGrad()
			c.trainStep(e)
			return logLoss(c.forward(e.I, e.J, e.K).logit, e.Val)
		}
		check.Assert(t, f, params, check.Options{})
	}
}

// TestGradcheckPairStep verifies the BCE step all three sequential models
// train with, in both of its uses: STRNN/STGN route the readout gradient into
// the time embedding and the hidden state, STAN into the user embedding and
// the attention output. a stands in for that state as a leaf. With two POIs
// the sampled negative is always the other one.
func TestGradcheckPairStep(t *testing.T) {
	rec := NewSTGN().(*recurrent)
	rec.build(3, 2, 4, 3, rand.New(rand.NewSource(11)))
	stan := NewSTAN()
	stan.build(3, 2, 4, 3, rand.New(rand.NewSource(12)))
	for _, c := range []struct {
		name      string
		pois, emb *nn.Embedding
		row       int
	}{
		{"time-and-hidden", rec.embPOI, rec.embTime, 2},
		{"user-and-attention", stan.embPOI, stan.embUser, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := check.RandomVector(3, 0.5, 13)
			dA := make([]float64, len(a))
			params := append(layerCheckParams([]nn.Layer{c.pois, c.emb}), check.Param{Name: "a", Value: a, Grad: dA})
			const pos, neg = 1, 0
			f := func() float64 {
				c.pois.ZeroGrad()
				c.emb.ZeroGrad()
				clear(dA)
				pairStep(rand.New(rand.NewSource(1)), c.pois, c.emb, c.row, pos, a, dA)
				b := c.emb.Lookup(c.row)
				return -math.Log(readout(a, b, c.pois.Lookup(pos))) - math.Log1p(-readout(a, b, c.pois.Lookup(neg)))
			}
			check.Assert(t, f, params, check.Options{})
		})
	}
}

// denseResidual computes ‖X − X̂‖²_F by brute force over every cell of the
// tensor, the reference the sparse Gram-identity implementations are checked
// against.
func denseResidual(x *tensor.COO, score func(i, j, k int) float64) float64 {
	dense := make(map[[3]int]float64, x.NNZ())
	for _, e := range x.Entries() {
		dense[[3]int{e.I, e.J, e.K}] = e.Val
	}
	var sum float64
	for i := 0; i < x.DimI; i++ {
		for j := 0; j < x.DimJ; j++ {
			for k := 0; k < x.DimK; k++ {
				d := dense[[3]int{i, j, k}] - score(i, j, k)
				sum += d * d
			}
		}
	}
	return sum
}

// TestCPFitErrorMatchesDense differentially checks CP.fitError's sparse Gram
// identity against the brute-force dense residual.
func TestCPFitErrorMatchesDense(t *testing.T) {
	fx := check.NewTrainFixture(21)
	c := NewCP()
	if err := c.Fit(&Context{Train: fx.Train, Rank: 3, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	got := c.fitError(fx.Train)
	want := denseResidual(fx.Train, c.Score)
	if rel := math.Abs(got-want) / (1 + math.Abs(want)); rel > 1e-9 {
		t.Fatalf("fitError %.12g vs dense residual %.12g (rel %g)", got, want, rel)
	}
}

// TestTuckerResidualNonIncreasing checks that additional HOOI sweeps never
// worsen the full-tensor reconstruction, the defining property of the
// alternating update.
func TestTuckerResidualNonIncreasing(t *testing.T) {
	fx := check.NewTrainFixture(22)
	residual := func(sweeps int) float64 {
		tk := NewTucker()
		tk.Sweeps = sweeps
		if err := tk.Fit(&Context{Train: fx.Train, Rank: 3, Seed: 4}); err != nil {
			t.Fatal(err)
		}
		return denseResidual(fx.Train, tk.Score)
	}
	prev := residual(1)
	for _, sweeps := range []int{2, 4} {
		cur := residual(sweeps)
		if cur > prev*(1+1e-9) {
			t.Fatalf("residual rose from %.12g (fewer sweeps) to %.12g (%d sweeps)", prev, cur, sweeps)
		}
		prev = cur
	}
}

// zeroGrad clears every gradient accumulator, the test-facing counterpart of
// step's post-update clear.
func (c *CoSTCo) zeroGrad() {
	clear(c.gw1)
	clear(c.gb1)
	clear(c.gw2)
	clear(c.gb2)
	c.emb[0].ZeroGrad()
	c.emb[1].ZeroGrad()
	c.emb[2].ZeroGrad()
	c.head.ZeroGrad()
}

// fitError returns the full-tensor squared reconstruction error
// ‖X − X̂‖²_F, computed sparsely through the Gram identity
// ‖X̂‖² = Σ_{ab} (U1ᵀU1 ⊙ U2ᵀU2 ⊙ U3ᵀU3)_{ab}. Tests use it to check that
// ALS sweeps never increase the objective.
func (c *CP) fitError(x *tensor.COO) float64 {
	g1, g2, g3 := c.u1.Gram(), c.u2.Gram(), c.u3.Gram()
	var normSq float64
	for i := range g1.Data {
		normSq += g1.Data[i] * g2.Data[i] * g3.Data[i]
	}
	var cross float64
	for _, e := range x.Entries() {
		cross += e.Val * c.Score(e.I, e.J, e.K)
	}
	return frobNormSq(x) - 2*cross + normSq
}

// frobNormSq is the squared Frobenius norm of x's stored entries.
func frobNormSq(x *tensor.COO) float64 {
	var s float64
	for _, e := range x.Entries() {
		s += e.Val * e.Val
	}
	return s
}
