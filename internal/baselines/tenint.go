package baselines

import (
	"fmt"
	"math/rand"

	"tcss/internal/mat"
	"tcss/internal/tensor"
)

// TenInt (Yao et al., SIGIR 2015) is the related-work model the paper
// contrasts TCSS against (§II): context-aware POI recommendation by CP
// tensor factorization with *social regularization* — the squared loss is
// regularized by the difference of user factors between each pair of
// friends, ‖U1[u] − U1[v]‖² for (u, v) ∈ E. Unlike TCSS it uses no spatial
// information and plain CP (no learnable h), which is exactly the contrast
// the paper draws. Trained by alternating least squares: the friend
// regularizer is quadratic in U1, so the mode-1 update solves per-user
// normal equations with the friends' factor mean folded in.
type TenInt struct {
	Ridge  float64 // Tikhonov regularization
	Social float64 // friend-difference weight β
	Sweeps int

	u1, u2, u3 *mat.Matrix
	fit        bool
}

// NewTenInt returns the TenInt baseline with the defaults used in the
// experiments.
func NewTenInt() *TenInt { return &TenInt{Ridge: 1e-3, Social: 0.5, Sweeps: 20} }

// Name implements Recommender.
func (t *TenInt) Name() string { return "TenInt" }

// Fit implements Recommender.
func (t *TenInt) Fit(ctx *Context) error {
	if ctx.Rank <= 0 {
		return fmt.Errorf("baselines: TenInt needs positive rank, got %d", ctx.Rank)
	}
	if ctx.Social == nil {
		return fmt.Errorf("baselines: TenInt needs the social graph")
	}
	rng := rand.New(rand.NewSource(ctx.Seed))
	x := ctx.Train
	r := ctx.Rank
	t.u1 = mat.Random(x.DimI, r, 0.1, rng)
	t.u2 = mat.Random(x.DimJ, r, 0.1, rng)
	t.u3 = mat.Random(x.DimK, r, 0.1, rng)

	for sweep := 0; sweep < t.Sweeps; sweep++ {
		if err := t.updateUsers(ctx); err != nil {
			return err
		}
		for _, mode := range []tensor.Mode{tensor.ModePOI, tensor.ModeTime} {
			if err := alsUpdate(t.Name(), x, mode, t.u1, t.u2, t.u3, t.Ridge); err != nil {
				return err
			}
		}
	}
	t.fit = true
	return nil
}

// updateUsers solves, for every user u, the regularized normal equations
//
//	(V + (λ + β·deg(u))·I) · U1[u] = MTTKRP₁[u] + β·Σ_{v∈N(u)} U1[v]
//
// where V = (U2ᵀU2) ⊙ (U3ᵀU3). The friend sum uses the factors from the
// previous sweep (Jacobi-style), which keeps the update embarrassingly
// parallel as in the original paper.
func (t *TenInt) updateUsers(ctx *Context) error {
	x := ctx.Train
	r := t.u1.Cols
	m := x.MTTKRP(tensor.ModeUser, t.u1, t.u2, t.u3)
	v := hadamardGram(t.u2, t.u3)
	prev := t.u1.Clone()
	for u := 0; u < x.DimI; u++ {
		friends := ctx.Social.Neighbors(u)
		a := v.Clone().AddRidge(t.Ridge + t.Social*float64(len(friends)))
		rhs := make([]float64, r)
		copy(rhs, m.Row(u))
		for _, f := range friends {
			row := prev.Row(f)
			for d := 0; d < r; d++ {
				rhs[d] += t.Social * row[d]
			}
		}
		sol, err := mat.SolveSPD(a, rhs)
		if err != nil {
			return fmt.Errorf("baselines: TenInt user %d: %w", u, err)
		}
		copy(t.u1.Row(u), sol)
	}
	return nil
}

// Score implements Recommender with the plain CP prediction.
func (t *TenInt) Score(i, j, k int) float64 {
	if !t.fit {
		panic("baselines: TenInt.Score before Fit")
	}
	return tensor.CPValue(t.u1, t.u2, t.u3, nil, i, j, k)
}
