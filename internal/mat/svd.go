package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// SVDResult holds a thin singular value decomposition A ≈ U·diag(S)·Vᵀ where
// U is m-by-k, S has k non-negative entries in descending order, and V is
// n-by-k.
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// ThinSVD computes the rank-k thin SVD of a. For k equal to min(m, n) it is a
// full thin decomposition. The implementation diagonalizes the smaller Gram
// matrix with the Jacobi eigensolver (for small inner dimension) or block
// orthogonal iteration (for large), then recovers the other factor; this is
// numerically adequate for the well-separated spectra that arise from
// check-in matrices and is entirely self-contained.
func ThinSVD(a *Matrix, k int, rng *rand.Rand) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	minDim := min(m, n)
	if k <= 0 || k > minDim {
		return nil, fmt.Errorf("mat: ThinSVD rank %d out of range (1..%d)", k, minDim)
	}

	// A tall matrix diagonalizes AᵀA (n-by-n) for V and recovers U = A·V·Σ⁻¹;
	// a wide one diagonalizes AAᵀ (m-by-m) for U and recovers V = Aᵀ·U·Σ⁻¹.
	tall := n <= m
	gram, product := a.GramT, a.TMul
	if tall {
		gram, product = a.Gram, a.Mul
	}
	eig, err := gramEigen(gram(), k, rng)
	if err != nil {
		return nil, err
	}
	s := make([]float64, k)
	for i := 0; i < k; i++ {
		ev := eig.Values[i]
		if ev < 0 {
			ev = 0
		}
		s[i] = math.Sqrt(ev)
	}
	other := product(eig.Vectors)
	normalizeColumns(other, s)
	if tall {
		return &SVDResult{U: other, S: s, V: eig.Vectors}, nil
	}
	return &SVDResult{U: eig.Vectors, S: s, V: other}, nil
}

// gramEigen picks the right eigensolver for a symmetric PSD Gram matrix: full
// Jacobi when the matrix is small, orthogonal iteration otherwise.
func gramEigen(gram *Matrix, k int, rng *rand.Rand) (*EigenResult, error) {
	const jacobiLimit = 160
	if gram.Rows <= jacobiLimit {
		full, err := SymEigen(gram)
		if err != nil {
			return nil, err
		}
		return full.Leading(k), nil
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return TopEigenvectors(nonzeroRows(gram), k, 300, rng)
}

// normalizeColumns divides column j of m by s[j]; columns with a (near) zero
// singular value are zeroed, which keeps downstream reconstructions finite.
func normalizeColumns(m *Matrix, s []float64) {
	for j := 0; j < m.Cols; j++ {
		sj := s[j]
		if sj < 1e-12 {
			for i := 0; i < m.Rows; i++ {
				m.Set(i, j, 0)
			}
			continue
		}
		inv := 1 / sj
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, m.At(i, j)*inv)
		}
	}
}

// Reconstruct returns U·diag(S)·Vᵀ for the decomposition.
func (r *SVDResult) Reconstruct() *Matrix {
	us := r.U.Clone()
	for j, s := range r.S {
		for i := 0; i < us.Rows; i++ {
			us.Set(i, j, us.At(i, j)*s)
		}
	}
	return us.MulT(r.V)
}

// SoftThresholdSVD computes the singular value soft-thresholding operator
// D_tau(A): the thin SVD of a with every singular value shrunk by tau (and
// clamped at zero). This is the proximal step of nuclear-norm minimization and
// drives the MCCO (soft-impute) matrix-completion baseline.
func SoftThresholdSVD(a *Matrix, k int, tau float64, rng *rand.Rand) (*SVDResult, error) {
	svd, err := ThinSVD(a, k, rng)
	if err != nil {
		return nil, err
	}
	for i := range svd.S {
		svd.S[i] -= tau
		if svd.S[i] < 0 {
			svd.S[i] = 0
		}
	}
	return svd, nil
}
