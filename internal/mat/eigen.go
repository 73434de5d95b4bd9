package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// EigenResult holds a symmetric eigendecomposition: Values[i] is the i-th
// eigenvalue (sorted descending) and the i-th column of Vectors is the
// corresponding unit eigenvector.
type EigenResult struct {
	Values  []float64
	Vectors *Matrix
}

// Leading returns the first k eigenpairs, the k largest of a SymEigen result.
func (e *EigenResult) Leading(k int) *EigenResult {
	vec := New(e.Vectors.Rows, k)
	for i := 0; i < vec.Rows; i++ {
		copy(vec.Row(i), e.Vectors.Row(i)[:k])
	}
	return &EigenResult{Values: e.Values[:k], Vectors: vec}
}

// SymEigen computes the full eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method. It is cubic per sweep and intended for
// matrices up to a few hundred rows; use TopEigenvectors for leading
// eigenpairs of larger matrices. The input is not modified.
func SymEigen(a *Matrix) (*EigenResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: SymEigen requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius mass; stop when it is negligible relative
		// to the matrix scale.
		var off, scale float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				x := w.At(i, j)
				scale += x * x
				if i != j {
					off += x * x
				}
			}
		}
		if off <= 1e-24*scale || off == 0 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				// Stable tangent of the rotation angle.
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				applyJacobiRotation(w, v, p, q, c, s)
			}
		}
	}

	res := &EigenResult{Values: make([]float64, n), Vectors: New(n, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = w.At(i, i)
	}
	sort.Slice(order, func(x, y int) bool { return diag[order[x]] > diag[order[y]] })
	for rank, idx := range order {
		res.Values[rank] = diag[idx]
		for r := 0; r < n; r++ {
			res.Vectors.Set(r, rank, v.At(r, idx))
		}
	}
	return res, nil
}

// applyJacobiRotation performs the two-sided rotation on w (symmetric) and the
// one-sided update on the eigenvector accumulator v, for the (p, q) plane with
// cosine c and sine s.
func applyJacobiRotation(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	for k := 0; k < n; k++ {
		wkp, wkq := w.At(k, p), w.At(k, q)
		w.Set(k, p, c*wkp-s*wkq)
		w.Set(k, q, s*wkp+c*wkq)
	}
	for k := 0; k < n; k++ {
		wpk, wqk := w.At(p, k), w.At(q, k)
		w.Set(p, k, c*wpk-s*wqk)
		w.Set(q, k, s*wpk+c*wqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

// TopEigenvectors returns the r leading eigenpairs of the symmetric sparse
// matrix a by block orthogonal iteration (subspace power iteration with QR
// re-orthonormalization). Eigenvalues are returned in descending order of
// magnitude of the Rayleigh quotients. The method converges geometrically with
// ratio |λ_{r+1}/λ_r|; maxIter bounds the sweeps. It is the workhorse behind
// the TCSS spectral initialization where a is I×I, J×J or K×K.
//
// Products with a run over its nonzeros only: the unfoldings' Gram matrices
// are mostly zeros. Each step takes one product, a·q of the freshly
// orthonormalized basis q, which is both this step's Rayleigh probe and the
// next step's power iterate; the last one also forms qᵀAq. Every sum runs in
// a fixed order, a row's nonzeros by ascending column as Matrix.Mul adds
// them, so the result depends on nothing but the arguments.
func TopEigenvectors(a *CSR, r, maxIter int, rng *rand.Rand) (*EigenResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: TopEigenvectors requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if r <= 0 || r > n {
		return nil, fmt.Errorf("mat: TopEigenvectors rank %d out of range (1..%d)", r, n)
	}
	// The basis and its image are held transposed (r×n, one vector per row)
	// so the QR, the probe and qᵀAq walk contiguous memory.
	q := RandomNormal(n, r, 1, rng).T()
	qrOrthonormalize(q)
	aq := New(r, n)
	a.mulInto(aq, q)
	vals, prev := make([]float64, r), make([]float64, r)
	for it := 0; it < maxIter; it++ {
		q, aq = aq, q
		qrOrthonormalize(q)
		a.mulInto(aq, q)
		// Rayleigh quotients along the current basis as a convergence probe.
		for j := range vals {
			vals[j] = Dot(q.Row(j), aq.Row(j))
		}
		if it > 0 {
			var diff float64
			for i := range vals {
				diff += math.Abs(vals[i] - prev[i])
			}
			if diff < 1e-12*(1+math.Abs(vals[0])) {
				break
			}
		}
		vals, prev = prev, vals
	}
	// Rotate q to diagonalize the projected matrix qᵀAq, so the returned
	// columns are true eigenvector estimates rather than an arbitrary basis
	// of the dominant subspace.
	small, err := SymEigen(q.MulT(aq))
	if err != nil {
		return nil, err
	}
	vectors := q.T().Mul(small.Vectors)
	return &EigenResult{Values: small.Values, Vectors: vectors}, nil
}

// CSR holds a matrix's nonzeros row by row: row i's column indices,
// ascending, are Idx[Ptr[i]:Ptr[i+1]] and its values Val[Ptr[i]:Ptr[i+1]].
type CSR struct {
	Rows, Cols int
	Ptr        []int
	Idx        []int32
	Val        []float64
}

// nonzeroRows is the dense-to-CSR step: a's nonzeros by ascending column.
func nonzeroRows(a *Matrix) *CSR {
	s := &CSR{Rows: a.Rows, Cols: a.Cols, Ptr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		for k, v := range a.Row(i) {
			if v != 0 {
				s.Idx, s.Val = append(s.Idx, int32(k)), append(s.Val, v)
			}
		}
		s.Ptr[i+1] = len(s.Idx)
	}
	return s
}

// Dense returns the matrix with zeros in every cell s does not hold.
func (s *CSR) Dense() *Matrix {
	out := New(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		for p := s.Ptr[i]; p < s.Ptr[i+1]; p++ {
			out.Set(i, int(s.Idx[p]), s.Val[p])
		}
	}
	return out
}

// mulInto writes (s·x)ᵀ into dst, where x holds the operand's columns as its
// rows. Each entry sums its row's nonzeros from zero in ascending column
// order, exactly the additions of Matrix.Mul.
func (s *CSR) mulInto(dst, x *Matrix) {
	for t := 0; t < x.Rows; t++ {
		xr, out := x.Row(t), dst.Row(t)
		for i := range out {
			var sum float64
			for p := s.Ptr[i]; p < s.Ptr[i+1]; p++ {
				sum += s.Val[p] * xr[s.Idx[p]]
			}
			out[i] = sum
		}
	}
}

// qrOrthonormalize replaces the rows of q (a basis held one vector per row)
// with an orthonormal basis of their span using modified Gram-Schmidt with
// one re-orthogonalization pass. A vector that lies in the span of those
// before it is replaced by the first of e_j, e_{j+1}, … (mod n) that does
// not, orthogonalized the same way, so the basis keeps full rank. One does:
// j < n vectors cannot span every unit vector.
func qrOrthonormalize(q *Matrix) {
	n := q.Cols
	for j := 0; j < q.Rows; j++ {
		v := q.Row(j)
		norm := orthogonalize(q, j)
		for e := j; norm == 0 && e < j+n; e++ {
			clear(v)
			v[e%n] = 1
			norm = orthogonalize(q, j)
		}
		ScaleVec(1/norm, v)
	}
}

// orthogonalize removes from row j of q its components along rows 0..j-1,
// in two passes, and returns the norm left, or 0 when the row lay in their
// span: the second pass only clears the first's rounding error, so a row it
// shrinks by more than half held nothing but rounding error.
func orthogonalize(q *Matrix, j int) float64 {
	v := q.Row(j)
	var left [2]float64
	for pass := range left {
		for k := 0; k < j; k++ {
			u := q.Row(k)
			dot := Dot(v, u)
			for i, x := range u {
				v[i] -= dot * x
			}
		}
		left[pass] = Norm2(v)
	}
	if left[1] < 1e-300 || 2*left[1] < left[0] {
		return 0
	}
	return left[1]
}
