package core

import (
	"fmt"
	"math"
	"math/rand"

	"tcss/internal/mat"
	"tcss/internal/tensor"
)

// InitMethod selects the embedding initialization strategy (§IV-A and the
// initialization ablation of Table II).
type InitMethod int

// The three initialization strategies compared in the paper.
const (
	// SpectralInit estimates factors from the top-r eigenvectors of the
	// zero-diagonal Gram matrices of the three tensor unfoldings (Eq 4),
	// the paper's method.
	SpectralInit InitMethod = iota
	// RandomInit draws factors from a small uniform distribution, the
	// strategy of CP and Tucker.
	RandomInit
	// OneHotInit indexes each entity with a (rank-folded) one-hot vector
	// plus symmetry-breaking noise, mirroring NCF's one-hot embedding
	// layer at its initial state.
	OneHotInit
)

// String names the method.
func (m InitMethod) String() string {
	switch m {
	case SpectralInit:
		return "spectral"
	case RandomInit:
		return "random"
	case OneHotInit:
		return "one-hot"
	}
	return fmt.Sprintf("init(%d)", int(m))
}

// Initialize fills the model's factors according to the method, using the
// observed training tensor for the spectral estimate. h starts at all ones so
// the model begins exactly at the CP special case of Eq (6).
func (m *Model) Initialize(method InitMethod, x *tensor.COO, rng *rand.Rand) error {
	for t := range m.H {
		m.H[t] = 1
	}
	switch method {
	case SpectralInit:
		return m.spectralInit(x, rng)
	case RandomInit:
		scale := 1.0 / math.Sqrt(float64(m.Rank))
		randomFill(m.U1, scale, rng)
		randomFill(m.U2, scale, rng)
		randomFill(m.U3, scale, rng)
		return nil
	case OneHotInit:
		oneHotFill(m.U1, rng)
		oneHotFill(m.U2, rng)
		oneHotFill(m.U3, rng)
		return nil
	}
	return fmt.Errorf("core: unknown init method %d", int(method))
}

func randomFill(u *mat.Matrix, scale float64, rng *rand.Rand) {
	for i := range u.Data {
		u.Data[i] = rng.Float64() * scale
	}
}

// oneHotFill sets row i to the (i mod r)-th unit vector plus small noise so
// identical rows can still separate under gradient descent.
func oneHotFill(u *mat.Matrix, rng *rand.Rand) {
	for i := 0; i < u.Rows; i++ {
		row := u.Row(i)
		for t := range row {
			row[t] = rng.NormFloat64() * 0.01
		}
		row[i%u.Cols] += 1
	}
}

// spectralInit implements Eq (4): for each mode, compute the Gram matrix of
// the unfolding without its diagonal, and take the top-r eigenvectors as the
// factor estimate. Columns are rescaled by |λ_t|^(1/6) so the three modes
// jointly reproduce the singular-value magnitude of the data (each mode
// carries a third of σ_t = √λ_t), which puts the initial predictions on the
// same scale as the binary observations.
func (m *Model) spectralInit(x *tensor.COO, rng *rand.Rand) error {
	if x.DimI != m.I || x.DimJ != m.J || x.DimK != m.K {
		return fmt.Errorf("core: spectral init tensor dims %dx%dx%d mismatch model %dx%dx%d",
			x.DimI, x.DimJ, x.DimK, m.I, m.J, m.K)
	}
	modes := []struct {
		mode tensor.Mode
		dst  *mat.Matrix
	}{
		{tensor.ModeUser, m.U1},
		{tensor.ModePOI, m.U2},
		{tensor.ModeTime, m.U3},
	}
	for _, md := range modes {
		eig, err := topEigen(x.GramOfUnfolding(md.mode), m.Rank, rng)
		if err != nil {
			return fmt.Errorf("core: spectral init mode %d: %w", md.mode, err)
		}
		copy(md.dst.Data, eig.Vectors.Data) // both dst.Rows × Rank
		// The check-in tensor is non-negative, so the useful part of each
		// eigenvector is one sign lobe (the leading one is non-negative
		// outright by Perron-Frobenius). As in the NNDSVD initialization for
		// non-negative factorizations, keep the dominant sign lobe of every
		// column and replace the minority lobe with small noise: a mixed-sign
		// start would have to reorganize sign patterns through a hard
		// combinatorial landscape and gets trapped, the very failure mode
		// spectral initialization is meant to avoid.
		for t := 0; t < m.Rank; t++ {
			var posNorm, negNorm float64
			for i := 0; i < md.dst.Rows; i++ {
				v := md.dst.At(i, t)
				if v >= 0 {
					posNorm += v * v
				} else {
					negNorm += v * v
				}
			}
			flip := negNorm > posNorm
			// Rescale every column to the same RMS a random initialization
			// would have: the eigen-directions carry the structure, while
			// matched magnitudes keep the optimizer's moment estimates on
			// the same footing as for the baselines' random starts.
			targetRMS := initTargetRMS(m.Rank)
			lobeRMS := math.Sqrt(math.Max(posNorm, negNorm)/float64(md.dst.Rows) + 1e-300)
			rescale := targetRMS / lobeRMS
			for i := 0; i < md.dst.Rows; i++ {
				v := md.dst.At(i, t)
				if flip {
					v = -v
				}
				if v < 0 {
					v = 0
				}
				v *= rescale
				// Blend in non-negative noise at a fraction of the column
				// scale: the spectral estimate seeds the subspace while the
				// noise keeps enough slack for gradient descent to leave the
				// estimate's immediate basin.
				v += math.Abs(rng.NormFloat64()) * initBlendNoise * targetRMS
				md.dst.Set(i, t, v)
			}
		}
	}
	return nil
}

// topEigen picks full Jacobi on a dense copy for small Grams (the K×K time
// one) and block orthogonal iteration for the larger user/POI Grams.
func topEigen(gram *mat.CSR, r int, rng *rand.Rand) (*mat.EigenResult, error) {
	n := gram.Rows
	if r > n {
		return nil, fmt.Errorf("rank %d exceeds matrix side %d", r, n)
	}
	if n <= 64 {
		full, err := mat.SymEigen(gram.Dense())
		if err != nil {
			return nil, err
		}
		return full.Leading(r), nil
	}
	return mat.TopEigenvectors(gram, r, 300, rng)
}

// initBlendNoise is the relative magnitude of the non-negative noise blended
// into the spectral factor estimates (see spectralInit).
const initBlendNoise = 0.3

// initTargetRMS is the per-entry RMS the random initialization produces
// (uniform on [0, 1/√r]), used to put the spectral columns on the same scale.
func initTargetRMS(rank int) float64 {
	return 1 / (math.Sqrt(3) * math.Sqrt(float64(rank)))
}
