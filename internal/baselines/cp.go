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
		if err := c.updateMode(x, tensor.ModeUser); err != nil {
			return err
		}
		if err := c.updateMode(x, tensor.ModePOI); err != nil {
			return err
		}
		if err := c.updateMode(x, tensor.ModeTime); err != nil {
			return err
		}
	}
	return nil
}

func (c *CP) updateMode(x *tensor.COO, mode tensor.Mode) error {
	var target *mat.Matrix
	var a, b *mat.Matrix
	switch mode {
	case tensor.ModeUser:
		a, b, target = c.u2, c.u3, c.u1
	case tensor.ModePOI:
		a, b, target = c.u1, c.u3, c.u2
	case tensor.ModeTime:
		a, b, target = c.u1, c.u2, c.u3
	}
	m := x.MTTKRP(mode, c.u1, c.u2, c.u3)
	v := hadamardGram(a, b).AddRidge(c.Ridge)
	sol, err := mat.SolveSPDMatrix(v, m.T())
	if err != nil {
		return fmt.Errorf("baselines: CP mode-%d solve: %w", mode, err)
	}
	// sol is r×n; write back transposed.
	st := sol.T()
	copy(target.Data, st.Data)
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
