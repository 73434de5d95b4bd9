package tensor

import (
	"fmt"
	"slices"

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

// GramOfUnfolding computes M·Mᵀ without its diagonal for the mode-n
// unfolding M, the input to the TCSS spectral initialization (Eq 4), as
// sparse rows with ascending columns and no exact zeros, in O(dim + nnz)
// scratch and O(Σ_fibers nnz(fiber)²) work. Entry (a, b) sums val(a)·val(b)
// over the fibers (unfolding columns) holding both rows in order of their
// first appearance among the stored entries, so its bits are reproducible.
func (t *COO) GramOfUnfolding(mode Mode) *mat.CSR {
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
	slot := make(map[int64]int32) // fiber key -> fiber number
	nnz := len(t.entries)
	fiber, row, rowAt := make([]int32, nnz), make([]int32, nnz), make([]int32, nnz)
	for n, e := range t.entries {
		r, key := t.fiberCoord(mode, e)
		s, ok := slot[key]
		if !ok {
			s = int32(len(slot))
			slot[key] = s
		}
		fiber[n], row[n] = s, int32(r)
	}
	// List the entries fiber by fiber, then group those positions by row:
	// each row lists its entries by ascending fiber number.
	fptr, byFiber := bucket(fiber, len(slot))
	for p, n := range byFiber {
		rowAt[p] = row[n]
	}
	rptr, byRow := bucket(rowAt, dim)
	out := &mat.CSR{Rows: dim, Cols: dim, Ptr: make([]int, dim+1)}
	acc, seen := make([]float64, dim), make([]bool, dim)
	var cols []int32
	for a := 0; a < dim; a++ {
		for _, p := range byRow[rptr[a]:rptr[a+1]] {
			n := byFiber[p]
			s, va := fiber[n], t.entries[n].Val
			for _, m := range byFiber[fptr[s]:fptr[s+1]] {
				b := row[m]
				if !seen[b] {
					seen[b] = true
					cols = append(cols, b)
				}
				acc[b] += va * t.entries[m].Val
			}
		}
		// Double the room: append would grow big slices by 1.25× at a time.
		if n := len(out.Idx); min(cap(out.Idx), cap(out.Val))-n < len(cols) {
			out.Idx, out.Val = slices.Grow(out.Idx, n+len(cols)), slices.Grow(out.Val, n+len(cols))
		}
		slices.Sort(cols)
		for _, b := range cols {
			if v := acc[b]; v != 0 && int(b) != a {
				out.Idx, out.Val = append(out.Idx, b), append(out.Val, v)
			}
			acc[b], seen[b] = 0, false
		}
		cols = cols[:0]
		out.Ptr[a+1] = len(out.Idx)
	}
	return out
}

// bucket groups the indices 0..len(key)-1 by key, keeping them ascending
// within a group: the indices with key k are out[ptr[k]:ptr[k+1]].
func bucket(key []int32, groups int) (ptr []int, out []int32) {
	ptr = make([]int, groups+1)
	for _, k := range key {
		ptr[k+1]++
	}
	for k := 0; k < groups; k++ {
		ptr[k+1] += ptr[k]
	}
	next := slices.Clone(ptr[:groups])
	out = make([]int32, len(key))
	for i, k := range key {
		out[next[k]] = int32(i)
		next[k]++
	}
	return ptr, out
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
