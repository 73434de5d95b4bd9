package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"tcss/internal/mat"
)

func randomCOO(dimI, dimJ, dimK, nnz int, rng *rand.Rand) *COO {
	x := NewCOO(dimI, dimJ, dimK)
	for n := 0; n < nnz; n++ {
		x.Set(rng.Intn(dimI), rng.Intn(dimJ), rng.Intn(dimK), rng.NormFloat64())
	}
	return x
}

// matricize returns the dense mode-n unfolding of the sparse tensor,
// following the paper's layout: mode 1 gives A ∈ R^{I×(JK)} with
// A[i, j*K+k] = X[i,j,k]; mode 2 gives B ∈ R^{J×(IK)} with
// B[j, i*K+k] = X[i,j,k]; mode 3 gives C ∈ R^{K×(IJ)} with
// C[k, i*J+j] = X[i,j,k]. It is the reference the Gram and MTTKRP tests
// compare against.
func matricize(t *COO, mode Mode) *mat.Matrix {
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
	}
	return out
}

// khatriRao returns the column-wise Khatri-Rao product A ⊙ B of an m-by-r and
// an n-by-r matrix: an (m*n)-by-r matrix whose column c is the Kronecker
// product of the c-th columns of A and B, with the row index of A varying
// slowest.
func khatriRao(a, b *mat.Matrix) *mat.Matrix {
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

// denseGram is the dense accumulation GramOfUnfolding replaced, the
// bit-for-bit reference for its sparse rows: every fiber, in order of first
// appearance, adds the outer product of its cells into a dim×dim matrix,
// whose diagonal is then zeroed.
func denseGram(t *COO, mode Mode) *mat.Matrix {
	dim := map[Mode]int{ModeUser: t.DimI, ModePOI: t.DimJ, ModeTime: t.DimK}[mode]
	type cell struct {
		row int
		val float64
	}
	slot := make(map[int64]int)
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
		for _, ca := range cells {
			rowData := out.Row(ca.row)
			for _, cb := range cells {
				rowData[cb.row] += ca.val * cb.val
			}
		}
	}
	zeroDiagonal(out)
	return out
}

func zeroDiagonal(m *mat.Matrix) {
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 0)
	}
}

func TestMatricizeLayout(t *testing.T) {
	x := NewCOO(2, 3, 4)
	x.Set(1, 2, 3, 7)
	a := matricize(x, ModeUser)
	if a.Rows != 2 || a.Cols != 12 || a.At(1, 2*4+3) != 7 {
		t.Fatalf("mode-1 unfolding wrong: %dx%d", a.Rows, a.Cols)
	}
	b := matricize(x, ModePOI)
	if b.Rows != 3 || b.Cols != 8 || b.At(2, 1*4+3) != 7 {
		t.Fatalf("mode-2 unfolding wrong: %dx%d", b.Rows, b.Cols)
	}
	c := matricize(x, ModeTime)
	if c.Rows != 4 || c.Cols != 6 || c.At(3, 1*3+2) != 7 {
		t.Fatalf("mode-3 unfolding wrong: %dx%d", c.Rows, c.Cols)
	}
}

// Property: every unfolding preserves the multiset of values, hence the norm.
func TestMatricizeNormPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomCOO(4, 5, 3, 20, rng)
		want := math.Sqrt(x.FrobNormSq())
		for _, mode := range []Mode{ModeUser, ModePOI, ModeTime} {
			if math.Abs(matricize(x, mode).FrobNorm()-want) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sparse Gram-of-unfolding equals the dense M·Mᵀ with its
// diagonal zeroed.
func TestGramOfUnfoldingMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomCOO(5, 4, 3, 25, rng)
		for _, mode := range []Mode{ModeUser, ModePOI, ModeTime} {
			want := matricize(x, mode).GramT()
			zeroDiagonal(want)
			if !x.GramOfUnfolding(mode).Dense().Equalf(want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestGramOfUnfoldingReproducible: with fractional values the fiber sums
// are order-sensitive at the ulp level, so every rebuild must add the fibers
// in the same order to come out bit-equal.
func TestGramOfUnfoldingReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := NewCOO(50, 80, 12)
	for n := 0; n < 2000; n++ {
		x.Set(rng.Intn(50), rng.Intn(80), rng.Intn(12), rng.Float64())
	}
	for _, mode := range []Mode{ModeUser, ModePOI, ModeTime} {
		first := x.GramOfUnfolding(mode).Dense()
		for rebuild := 0; rebuild < 20; rebuild++ {
			var differ int
			for i, v := range x.GramOfUnfolding(mode).Dense().Data {
				if math.Float64bits(v) != math.Float64bits(first.Data[i]) {
					differ++
				}
			}
			if differ > 0 {
				t.Fatalf("mode %d rebuild %d: %d cells differ from the first build", mode, rebuild, differ)
			}
		}
	}
}

// FuzzGramOfUnfolding: on any small tensor with fractional entries, of
// either sign so that sums can cancel to zero, the sparse rows hold exactly
// the nonzero cells of the dense reference, bit for bit, with columns
// strictly ascending. Bytes 0-2 set the dims (1 to 32); every further four
// bytes set one cell (i, j, k, value/7).
func FuzzGramOfUnfolding(f *testing.F) {
	f.Add([]byte{3, 4, 2, 0, 1, 0, 9, 1, 1, 0, 200, 2, 1, 1, 7, 0, 3, 1, 250})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 5})
	f.Add([]byte{5, 5, 5, 1, 2, 3, 4, 2, 2, 3, 252, 4, 2, 3, 11, 1, 0, 3, 3, 2, 0, 3, 3, 4, 0, 3, 250})
	f.Add([]byte{31, 3, 0, 9, 0, 0, 3, 20, 0, 0, 250, 7, 0, 0, 5, 30, 0, 0, 8, 9, 1, 0, 9, 7, 1, 0, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		x := NewCOO(1+int(data[0])%32, 1+int(data[1])%32, 1+int(data[2])%32)
		for p := 3; p+4 <= len(data); p += 4 {
			c := data[p:]
			x.Set(int(c[0])%x.DimI, int(c[1])%x.DimJ, int(c[2])%x.DimK, float64(int8(c[3]))/7)
		}
		for _, mode := range []Mode{ModeUser, ModePOI, ModeTime} {
			g, want := x.GramOfUnfolding(mode), denseGram(x, mode)
			if g.Rows != want.Rows || g.Cols != want.Cols || len(g.Ptr) != g.Rows+1 || g.Ptr[0] != 0 {
				t.Fatalf("mode %d: shape %dx%d with %d row pointers, want %dx%d", mode, g.Rows, g.Cols, len(g.Ptr), want.Rows, want.Cols)
			}
			var nonzero int
			for _, v := range want.Data {
				if v != 0 {
					nonzero++
				}
			}
			if len(g.Idx) != nonzero || len(g.Val) != nonzero || g.Ptr[g.Rows] != nonzero {
				t.Fatalf("mode %d: %d stored entries, want the reference's %d nonzeros", mode, len(g.Idx), nonzero)
			}
			for i := 0; i < g.Rows; i++ {
				for p := g.Ptr[i] + 1; p < g.Ptr[i+1]; p++ {
					if g.Idx[p] <= g.Idx[p-1] {
						t.Fatalf("mode %d row %d: columns %v not strictly ascending", mode, i, g.Idx[g.Ptr[i]:g.Ptr[i+1]])
					}
				}
			}
			for i, v := range g.Dense().Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("mode %d cell (%d, %d) = %v, reference %v", mode, i/g.Cols, i%g.Cols, v, want.Data[i])
				}
			}
		}
	})
}

// TestGramOfUnfoldingHeap: the POI Gram of a J = 8 000 tensor with 60 000
// check-ins allocates O(dim + nnz), not the 512 MB of a dense J×J matrix.
func TestGramOfUnfoldingHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := NewCOO(3600, 8000, 12)
	for x.NNZ() < 60000 {
		x.Set(rng.Intn(x.DimI), rng.Intn(x.DimJ), rng.Intn(x.DimK), 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := x.GramOfUnfolding(ModePOI)
	runtime.ReadMemStats(&after)
	if len(g.Idx) == 0 {
		t.Fatal("POI Gram has no off-diagonal nonzeros")
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("POI Gram: %d off-diagonal nonzeros, %.1f MB allocated", len(g.Idx), mb)
	if mb >= 32 {
		t.Fatalf("POI Gram allocated %.1f MB, want < 32 MB", mb)
	}
}

func TestKhatriRaoKnown(t *testing.T) {
	a := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := mat.FromSlice(2, 2, []float64{5, 6, 7, 8})
	kr := khatriRao(a, b)
	want := mat.FromSlice(4, 2, []float64{
		1 * 5, 2 * 6,
		1 * 7, 2 * 8,
		3 * 5, 4 * 6,
		3 * 7, 4 * 8,
	})
	if !kr.Equalf(want, 0) {
		t.Fatalf("KhatriRao = %v, want %v", kr, want)
	}
}

// Property: MTTKRP from sparse entries equals the dense definition
// X_(n) · (KhatriRao of the other two factors), for each mode.
func TestMTTKRPMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dimI, dimJ, dimK, r := 4, 5, 3, 2
		x := randomCOO(dimI, dimJ, dimK, 18, rng)
		u1 := mat.RandomNormal(dimI, r, 1, rng)
		u2 := mat.RandomNormal(dimJ, r, 1, rng)
		u3 := mat.RandomNormal(dimK, r, 1, rng)

		// Mode 1: A_(1) is I×(JK) with column j*K+k, so the matching
		// Khatri-Rao has the J index varying slowest: U2 ⊙ U3.
		m1 := x.MTTKRP(ModeUser, u1, u2, u3)
		d1 := matricize(x, ModeUser).Mul(khatriRao(u2, u3))
		if !m1.Equalf(d1, 1e-9) {
			return false
		}
		m2 := x.MTTKRP(ModePOI, u1, u2, u3)
		d2 := matricize(x, ModePOI).Mul(khatriRao(u1, u3))
		if !m2.Equalf(d2, 1e-9) {
			return false
		}
		m3 := x.MTTKRP(ModeTime, u1, u2, u3)
		d3 := matricize(x, ModeTime).Mul(khatriRao(u1, u2))
		return m3.Equalf(d3, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCPValue(t *testing.T) {
	u1 := mat.FromSlice(1, 2, []float64{2, 3})
	u2 := mat.FromSlice(1, 2, []float64{5, 7})
	u3 := mat.FromSlice(1, 2, []float64{11, 13})
	if got := CPValue(u1, u2, u3, nil, 0, 0, 0); got != 2*5*11+3*7*13 {
		t.Fatalf("CPValue = %g", got)
	}
	h := []float64{0.5, 2}
	if got := CPValue(u1, u2, u3, h, 0, 0, 0); got != 0.5*2*5*11+2*3*7*13 {
		t.Fatalf("weighted CPValue = %g", got)
	}
}
