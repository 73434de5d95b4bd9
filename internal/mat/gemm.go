package mat

import "fmt"

// This file holds the allocation-free kernels behind the repository's hot
// paths: the slab scoring kernel of core.Model.ScoreSlab and the per-POI
// scores of core.Model. They differ from the allocating Mul/MulT methods in
// two ways: the caller owns the output (so epoch loops reuse one buffer),
// and the inner products run with four independent accumulators, which
// breaks the floating-point dependency chain and roughly doubles throughput
// on short rank-sized vectors. Four-way accumulation regroups additions
// relative to the sequential Dot, so results may differ from the naive
// kernels by O(machine epsilon); every user of these kernels compares
// against references with a tolerance, never bit-for-bit.

// DotUnrolled returns the inner product of a and b using four independent
// accumulators. The slices must have equal length.
func DotUnrolled(a, b []float64) float64 {
	n := len(a)
	if n != len(b) {
		panic(fmt.Sprintf("mat: DotUnrolled length mismatch %d vs %d", n, len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

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
	bd := b.Data
	for i := 0; i < a.Rows; i++ {
		HadamardInto(scratch, a.Row(i), w)
		orow := out[i*b.Rows : (i+1)*b.Rows]
		off := 0
		for j := 0; j < b.Rows; j++ {
			// Four-accumulator dot, inlined: a function call per output cell
			// dominates this kernel at rank-sized inner lengths.
			brow := bd[off : off+r : off+r]
			off += r
			var s0, s1, s2, s3 float64
			t := 0
			for ; t+4 <= r; t += 4 {
				s0 += scratch[t] * brow[t]
				s1 += scratch[t+1] * brow[t+1]
				s2 += scratch[t+2] * brow[t+2]
				s3 += scratch[t+3] * brow[t+3]
			}
			for ; t < r; t++ {
				s0 += scratch[t] * brow[t]
			}
			orow[j] = (s0 + s1) + (s2 + s3)
		}
	}
}
