package baselines

import (
	"fmt"
	"math/rand"

	"tcss/internal/mat"
	"tcss/internal/tensor"
)

// CP fits a rank-r CP (CANDECOMP/PARAFAC) decomposition of the full binary
// tensor (unobserved cells treated as zeros) by alternating least squares.
// Each sweep solves the ridge-regularized normal equations
//
//	U1 ← MTTKRP₁(X) · (U2ᵀU2 ⊙ U3ᵀU3 + λI)⁻¹
//
// and cyclically for the other modes; the MTTKRP is computed directly from
// the sparse entries.
type CP struct {
	Ridge  float64
	Sweeps int

	u1, u2, u3 *mat.Matrix
}

// NewCP returns a CP baseline with a small ridge and the default sweep count.
func NewCP() *CP { return &CP{Ridge: 1e-3, Sweeps: 20} }

// Name implements Recommender.
func (c *CP) Name() string { return "CP" }

// Fit implements Recommender.
func (c *CP) Fit(ctx *Context) error {
	if ctx.Rank <= 0 {
		return fmt.Errorf("baselines: CP needs positive rank, got %d", ctx.Rank)
	}
	rng := rand.New(rand.NewSource(ctx.Seed))
	x := ctx.Train
	r := ctx.Rank
	c.u1 = mat.Random(x.DimI, r, 0.1, rng)
	c.u2 = mat.Random(x.DimJ, r, 0.1, rng)
	c.u3 = mat.Random(x.DimK, r, 0.1, rng)

	for sweep := 0; sweep < c.Sweeps; sweep++ {
		for _, mode := range []tensor.Mode{tensor.ModeUser, tensor.ModePOI, tensor.ModeTime} {
			if err := alsUpdate(c.Name(), x, mode, c.u1, c.u2, c.u3, c.Ridge); err != nil {
				return err
			}
		}
	}
	return nil
}

// alsUpdate is the CP-ALS update of one mode's factor in place: that mode's
// MTTKRP solved against the ridge-regularized Hadamard product of the other
// two factors' Grams. model names the baseline in a solve error.
func alsUpdate(model string, x *tensor.COO, mode tensor.Mode, u1, u2, u3 *mat.Matrix, ridge float64) error {
	a, b, target := u2, u3, u1
	switch mode {
	case tensor.ModePOI:
		a, b, target = u1, u3, u2
	case tensor.ModeTime:
		a, b, target = u1, u2, u3
	}
	m := x.MTTKRP(mode, u1, u2, u3)
	v := hadamardGram(a, b).AddRidge(ridge)
	sol, err := mat.SolveSPDMatrix(v, m.T())
	if err != nil {
		return fmt.Errorf("baselines: %s mode-%d solve: %w", model, mode, err)
	}
	// sol is r×n; write back transposed.
	copy(target.Data, sol.T().Data)
	return nil
}

// hadamardGram returns (AᵀA) ⊙ (BᵀB).
func hadamardGram(a, b *mat.Matrix) *mat.Matrix {
	ga, gb := a.Gram(), b.Gram()
	out := mat.New(ga.Rows, ga.Cols)
	for i := range out.Data {
		out.Data[i] = ga.Data[i] * gb.Data[i]
	}
	return out
}

// Score implements Recommender with the CP prediction of Eq (1).
func (c *CP) Score(i, j, k int) float64 {
	return tensor.CPValue(c.u1, c.u2, c.u3, nil, i, j, k)
}
