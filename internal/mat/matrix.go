// Package mat implements the dense linear algebra used throughout the
// repository: a row-major Matrix type with BLAS-like operations, QR
// factorization, symmetric eigendecomposition (cyclic Jacobi and block
// orthogonal iteration for leading eigenpairs), a thin SVD, and Cholesky
// solvers. Everything is written from scratch on the standard library; no
// external numerical packages are used.
//
// The package exists to support the spectral embedding initialization of the
// TCSS model (top-r eigenvectors of zero-diagonal Gram matrices of tensor
// unfoldings), the PureSVD and MCCO matrix-completion baselines, and the ALS
// sweeps of the CP/Tucker/P-Tucker tensor baselines.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix. Data holds Rows*Cols float64 values;
// entry (i, j) lives at Data[i*Cols+j]. The zero Matrix is empty and unusable;
// construct with New or one of the From helpers.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-filled r-by-c matrix. It panics if either dimension is
// negative or zero, since a dimensionless matrix is always a caller bug here.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (row-major, length r*c) in a Matrix without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Random returns an r-by-c matrix with entries drawn uniformly from
// [-scale, scale) using rng.
func Random(r, c int, scale float64, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * scale
	}
	return m
}

// RandomNormal returns an r-by-c matrix with N(0, sigma^2) entries.
func RandomNormal(r, c int, sigma float64, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * sigma
	}
	return m
}

// At returns entry (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every entry to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Add returns m + b as a new matrix. Dimensions must match.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.mustSameShape(b, "Add")
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns m - b as a new matrix. Dimensions must match.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.mustSameShape(b, "Sub")
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s*m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// AddInPlace accumulates b into m.
func (m *Matrix) AddInPlace(b *Matrix) {
	m.mustSameShape(b, "AddInPlace")
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

func (m *Matrix) mustSameShape(b *Matrix, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// Mul returns the matrix product m*b. It uses a cache-friendly ikj loop order.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := New(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// MulT returns m * bᵀ.
func (m *Matrix) MulT(b *Matrix) *Matrix {
	if m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulT inner mismatch %dx%d * (%dx%d)^T", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := New(m.Rows, b.Rows)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
	return out
}

// TMul returns mᵀ * b.
func (m *Matrix) TMul(b *Matrix) *Matrix {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("mat: TMul inner mismatch (%dx%d)^T * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := New(m.Cols, b.Cols)
	for k := 0; k < m.Rows; k++ {
		arow := m.Row(k)
		brow := b.Row(k)
		for i, a := range arow {
			if a == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// Gram returns mᵀm, the c-by-c Gram matrix of the columns of m.
func (m *Matrix) Gram() *Matrix { return m.TMul(m) }

// GramT returns m·mᵀ, the r-by-r Gram matrix of the rows of m.
func (m *Matrix) GramT() *Matrix { return m.MulT(m) }

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix) FrobNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equalf reports whether m and b agree entrywise within tol.
func (m *Matrix) Equalf(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d, |.|F=%.4g)", m.Rows, m.Cols, m.FrobNorm())
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
