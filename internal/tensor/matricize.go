package tensor

import (
	"fmt"

	"tcss/internal/mat"
)

// Mode identifies a tensor mode: 1 = users (I), 2 = POIs (J), 3 = time (K).
type Mode int

// The three modes of an order-3 check-in tensor.
const (
	ModeUser Mode = 1
	ModePOI  Mode = 2
	ModeTime Mode = 3
)

// Matricize returns the dense mode-n unfolding of the sparse tensor,
// following the paper's layout: mode 1 gives A ∈ R^{I×(JK)} with
// A[i, j*K+k] = X[i,j,k]; mode 2 gives B ∈ R^{J×(IK)} with
// B[j, i*K+k] = X[i,j,k]; mode 3 gives C ∈ R^{K×(IJ)} with
// C[k, i*J+j] = X[i,j,k].
func (t *COO) Matricize(mode Mode) *mat.Matrix {
	var out *mat.Matrix
	switch mode {
	case ModeUser:
		out = mat.New(t.DimI, t.DimJ*t.DimK)
		for _, e := range t.entries {
			out.Set(e.I, e.J*t.DimK+e.K, e.Val)
		}
	case ModePOI:
		out = mat.New(t.DimJ, t.DimI*t.DimK)
		for _, e := range t.entries {
			out.Set(e.J, e.I*t.DimK+e.K, e.Val)
		}
	case ModeTime:
		out = mat.New(t.DimK, t.DimI*t.DimJ)
		for _, e := range t.entries {
			out.Set(e.K, e.I*t.DimJ+e.J, e.Val)
		}
	default:
		panic(fmt.Sprintf("tensor: unknown mode %d", mode))
	}
	return out
}

// fiberCoord returns, for an entry, the (rowIndex, fiberKey) pair of the
// given mode, where rowIndex is the mode index and fiberKey identifies the
// column of the unfolding.
func (t *COO) fiberCoord(mode Mode, e Entry) (row int, fiber int64) {
	switch mode {
	case ModeUser:
		return e.I, int64(e.J)*int64(t.DimK) + int64(e.K)
	case ModePOI:
		return e.J, int64(e.I)*int64(t.DimK) + int64(e.K)
	case ModeTime:
		return e.K, int64(e.I)*int64(t.DimJ) + int64(e.J)
	}
	panic(fmt.Sprintf("tensor: unknown mode %d", mode))
}

// GramOfUnfolding computes M·Mᵀ for the mode-n unfolding M without ever
// materializing M. The result is a dense square matrix of side I, J or K.
// The computation groups entries by unfolding column (fiber) and accumulates
// the outer product of each fiber's sparse column, costing
// O(Σ_fibers nnz(fiber)²) instead of O(dim² · JK). This is the input to the
// TCSS spectral initialization (after zeroing the diagonal). Fibers are
// accumulated in order of first appearance among the stored entries, so the
// sums, and with them the bits of a fractional-valued Gram, are reproducible.
func (t *COO) GramOfUnfolding(mode Mode) *mat.Matrix {
	var dim int
	switch mode {
	case ModeUser:
		dim = t.DimI
	case ModePOI:
		dim = t.DimJ
	case ModeTime:
		dim = t.DimK
	default:
		panic(fmt.Sprintf("tensor: unknown mode %d", mode))
	}
	type cell struct {
		row int
		val float64
	}
	slot := make(map[int64]int) // fiber key -> index in fibers
	var fibers [][]cell
	for _, e := range t.entries {
		row, fiber := t.fiberCoord(mode, e)
		s, ok := slot[fiber]
		if !ok {
			s = len(fibers)
			slot[fiber] = s
			fibers = append(fibers, nil)
		}
		fibers[s] = append(fibers[s], cell{row: row, val: e.Val})
	}
	out := mat.New(dim, dim)
	for _, cells := range fibers {
		for a := 0; a < len(cells); a++ {
			ca := cells[a]
			rowData := out.Row(ca.row)
			for b := 0; b < len(cells); b++ {
				cb := cells[b]
				rowData[cb.row] += ca.val * cb.val
			}
		}
	}
	return out
}

// KhatriRao returns the column-wise Khatri-Rao product A ⊙ B of an m-by-r and
// an n-by-r matrix: an (m*n)-by-r matrix whose column c is the Kronecker
// product of the c-th columns of A and B, with the row index of A varying
// slowest.
func KhatriRao(a, b *mat.Matrix) *mat.Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: KhatriRao rank mismatch %d vs %d", a.Cols, b.Cols))
	}
	out := mat.New(a.Rows*b.Rows, a.Cols)
	for ia := 0; ia < a.Rows; ia++ {
		arow := a.Row(ia)
		for ib := 0; ib < b.Rows; ib++ {
			brow := b.Row(ib)
			orow := out.Row(ia*b.Rows + ib)
			for c := range orow {
				orow[c] = arow[c] * brow[c]
			}
		}
	}
	return out
}

// MTTKRP computes the matricized-tensor-times-Khatri-Rao-product for the
// given mode directly from the sparse entries:
//
//	mode 1: M[i,:] += val · (U2[j,:] ∘ U3[k,:])
//	mode 2: M[j,:] += val · (U1[i,:] ∘ U3[k,:])
//	mode 3: M[k,:] += val · (U1[i,:] ∘ U2[j,:])
//
// where ∘ is the element-wise product. This is the core kernel of CP-ALS.
// u1, u2, u3 are the I-by-r, J-by-r and K-by-r factor matrices.
func (t *COO) MTTKRP(mode Mode, u1, u2, u3 *mat.Matrix) *mat.Matrix {
	r := u1.Cols
	if u2.Cols != r || u3.Cols != r {
		panic("tensor: MTTKRP factor rank mismatch")
	}
	if u1.Rows != t.DimI || u2.Rows != t.DimJ || u3.Rows != t.DimK {
		panic("tensor: MTTKRP factor shape mismatch with tensor dims")
	}
	var out *mat.Matrix
	switch mode {
	case ModeUser:
		out = mat.New(t.DimI, r)
		for _, e := range t.entries {
			dst := out.Row(e.I)
			a, b := u2.Row(e.J), u3.Row(e.K)
			for c := 0; c < r; c++ {
				dst[c] += e.Val * a[c] * b[c]
			}
		}
	case ModePOI:
		out = mat.New(t.DimJ, r)
		for _, e := range t.entries {
			dst := out.Row(e.J)
			a, b := u1.Row(e.I), u3.Row(e.K)
			for c := 0; c < r; c++ {
				dst[c] += e.Val * a[c] * b[c]
			}
		}
	case ModeTime:
		out = mat.New(t.DimK, r)
		for _, e := range t.entries {
			dst := out.Row(e.K)
			a, b := u1.Row(e.I), u2.Row(e.J)
			for c := 0; c < r; c++ {
				dst[c] += e.Val * a[c] * b[c]
			}
		}
	default:
		panic(fmt.Sprintf("tensor: unknown mode %d", mode))
	}
	return out
}

// CPValue evaluates the CP model Σ_t U1[i,t]·U2[j,t]·U3[k,t] at one cell,
// optionally weighted per-factor by h (pass nil for plain CP, matching Eq (1);
// pass the TCSS dense-layer weights for Eq (6)).
func CPValue(u1, u2, u3 *mat.Matrix, h []float64, i, j, k int) float64 {
	a, b, c := u1.Row(i), u2.Row(j), u3.Row(k)
	var s float64
	if h == nil {
		for t := range a {
			s += a[t] * b[t] * c[t]
		}
		return s
	}
	for t := range a {
		s += h[t] * a[t] * b[t] * c[t]
	}
	return s
}
