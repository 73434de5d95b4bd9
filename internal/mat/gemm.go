package mat

import "fmt"

// This file holds the allocation-free slab product behind
// core.Model.ScoreSlab. Unlike the allocating Mul/MulT methods, the caller
// owns the output (so epoch loops reuse one buffer), and every inner product
// runs through DotRows, whose four-accumulator order regroups additions
// relative to the sequential Dot: results may differ from the naive kernels
// by O(machine epsilon), and they are bit-identical to every other
// DotRows-scored value — the candidate scores and the top-N scan.

// MulDiagTSlice computes out = a · diag(w) · bᵀ without materializing the
// scaled operand: out[i][j] = Σ_t a[i][t]·w[t]·b[j][t]. It is the slab
// scoring primitive — with a = U2 (J×r), w = h ⊙ U1[i], b = U3 (K×r) the
// result is the full J×K prediction slice X̂[i,·,·] of Eq (6). out is a raw
// row-major slice of length a.Rows·b.Rows, which avoids a Matrix header
// allocation per call (one slab score per user per epoch adds up). scratch
// must have length a.Cols (= len(w) = b.Cols) and is clobbered; passing it
// in lets per-worker callers run allocation-free.
func MulDiagTSlice(out []float64, a *Matrix, w []float64, b *Matrix, scratch []float64) {
	r := a.Cols
	if len(w) != r || b.Cols != r {
		panic(fmt.Sprintf("mat: MulDiagTSlice inner mismatch a %dx%d, w %d, b %dx%d", a.Rows, a.Cols, len(w), b.Rows, b.Cols))
	}
	if len(scratch) != r {
		panic(fmt.Sprintf("mat: MulDiagTSlice scratch %d, want %d", len(scratch), r))
	}
	if len(out) != a.Rows*b.Rows {
		panic(fmt.Sprintf("mat: MulDiagTSlice out length %d, want %d", len(out), a.Rows*b.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		HadamardInto(scratch, a.Row(i), w)
		DotRows(out[i*b.Rows:(i+1)*b.Rows], scratch, b.Data)
	}
}
