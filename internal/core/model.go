// Package core implements TCSS, the paper's tensor-completion model for
// time-sensitive POI recommendation with social-spatial side information.
//
// The model (Eq 6) scores a (user, POI, time) triple as
//
//	X̂[i,j,k] = hᵀ (U1[i] ⊙ U2[j] ⊙ U3[k])
//
// with learnable factor matrices U1 (users), U2 (POIs), U3 (time units) and a
// dense-layer weight vector h. Training minimizes the joint loss
// L = λ·L1 + L2 (Eq 20), where L2 is the class-weighted least-squares error
// over the WHOLE tensor — rewritten per Eq (15) so it costs
// O((I+J+K)·r²) instead of O(I·J·K·r) — and L1 is the social Hausdorff
// distance head (Eq 12-13) that pulls each user's predicted POI distribution
// toward the POIs visited by the user's friends, weighted by location
// entropy for diversity.
//
// The package also implements every ablation variant of Table II: random and
// one-hot initialization, λ = 0, negative sampling, self-Hausdorff and
// zero-out.
package core

import (
	"fmt"
	"math"
	"slices"

	"tcss/internal/mat"
)

// Model holds the learned TCSS parameters. I, J and K are the tensor
// dimensions; Rank is the embedding length r.
type Model struct {
	Rank    int
	I, J, K int

	U1 *mat.Matrix // I×r user factors (nil in compact modes)
	U2 *mat.Matrix // J×r POI factors (nil in compact modes)
	U3 *mat.Matrix // K×r time factors (nil in compact modes)
	H  []float64   // r dense-layer weights (Eq 6), always float64

	// Mode selects the factor storage representation. In StorageFloat64 the
	// U1/U2/U3 matrices above hold the factors and Compact is nil; in the
	// compact modes U1/U2/U3 are nil and Compact holds the slabs. All
	// scoring entry points dispatch on Mode; training and online updates
	// require StorageFloat64 (see ToStorage / Decompress).
	Mode    StorageMode
	Compact *compactFactors

	// ZeroOutFilter, when non-nil, marks POIs a user may be recommended
	// (true = allowed). It implements the Zero-out ablation variant, which
	// disregards POIs farther than a threshold from the user's own visited
	// POIs; nil disables the filter.
	ZeroOutFilter [][]bool
}

// NewModel allocates an untrained model of the given shape.
func NewModel(i, j, k, rank int) *Model {
	if rank <= 0 {
		panic(fmt.Sprintf("core: invalid rank %d", rank))
	}
	return &Model{
		Rank: rank, I: i, J: j, K: k,
		U1: mat.New(i, rank),
		U2: mat.New(j, rank),
		U3: mat.New(k, rank),
		H:  make([]float64, rank),
	}
}

// Predict returns the raw model score X̂[i,j,k] of Eq (6). In compact
// storage modes the three factor rows are dequantized into a small
// temporary; hot loops should use ScoreCandidates or TopNScratch, which
// amortize that work across candidates.
func (m *Model) Predict(i, j, k int) float64 {
	var a, b, c []float64
	if m.Mode == StorageFloat64 {
		a, b, c = m.U1.Row(i), m.U2.Row(j), m.U3.Row(k)
	} else {
		buf := make([]float64, 3*m.Rank)
		a = m.row(axUser, i, buf[:m.Rank])
		b = m.row(axPOI, j, buf[m.Rank:2*m.Rank])
		c = m.row(axTime, k, buf[2*m.Rank:])
	}
	var s float64
	for t := 0; t < m.Rank; t++ {
		s += m.H[t] * a[t] * b[t] * c[t]
	}
	return s
}

// Score returns the score used for ranking: the raw prediction, except that
// POIs excluded by the zero-out filter score negative infinity.
func (m *Model) Score(i, j, k int) float64 {
	if m.ZeroOutFilter != nil && !m.ZeroOutFilter[i][j] {
		return math.Inf(-1)
	}
	return m.Predict(i, j, k)
}

// ScoreSlab fills out (length J·K, laid out as out[j*K+k]) with the raw
// prediction slice X̂[i,·,·] of Eq (6), computed as the dense slab product
// U2 · diag(h ⊙ U1ᵢ) · U3ᵀ instead of J·K scalar Predict calls. It allocates
// a small rank-sized scratch. mat.DotRows' four-way accumulation regroups
// additions, so entries match Predict to O(machine epsilon), not
// bit-for-bit. The Hausdorff head's mat.SlabVisitProbs computes the same
// sums without storing them.
func (m *Model) ScoreSlab(i int, out []float64) {
	if len(out) != m.J*m.K {
		panic(fmt.Sprintf("core: ScoreSlab out length %d, want %d", len(out), m.J*m.K))
	}
	scratch := make([]float64, 2*m.Rank)
	w := scratch[:m.Rank]
	if m.Mode == StorageFloat64 {
		mat.HadamardInto(w, m.H, m.U1.Row(i))
		mat.MulDiagTSlice(out, m.U2, w, m.U3, scratch[m.Rank:2*m.Rank])
		return
	}
	// Compact path: dequantize U3 once (K·r, small), then stream U2 rows
	// through the second scratch half. Allocates the U3 buffer; the compact
	// modes are serving formats, and serving batches score via TopNBatch.
	mat.HadamardInto(w, m.H, m.row(axUser, i, scratch[m.Rank:2*m.Rank]))
	u3 := make([]float64, m.K*m.Rank)
	for k := 0; k < m.K; k++ {
		m.row(axTime, k, u3[k*m.Rank:(k+1)*m.Rank])
	}
	wj := scratch[m.Rank : 2*m.Rank]
	for j := 0; j < m.J; j++ {
		m.row(axPOI, j, wj)
		for t := range wj {
			wj[t] *= w[t]
		}
		mat.DotRows(out[j*m.K:(j+1)*m.K], wj, u3)
	}
}

// ScoreCandidates scores the candidate POIs js at a fixed (user, time) pair,
// writing Score(i, js[n], k) into out[n]. Factoring w = h ⊙ U1ᵢ ⊙ U3ₖ out of
// the candidate loop makes each candidate a single rank-length inner product
// — a third of Predict's multiplies — which is the hot kernel of the ranking
// protocol (100 negatives per held-out entry). The zero-out filter applies
// exactly as in Score.
func (m *Model) ScoreCandidates(i, k int, js []int, out []float64) {
	if len(out) < len(js) {
		panic(fmt.Sprintf("core: ScoreCandidates out length %d for %d candidates", len(out), len(js)))
	}
	buf := make([]float64, 3*m.Rank)
	w := buf[:m.Rank]
	m.buildWeights(i, k, w, buf[m.Rank:])
	var keep []bool
	if m.ZeroOutFilter != nil {
		keep = m.ZeroOutFilter[i]
	}
	switch m.Mode {
	case StorageFloat32:
		scoreRows(out, w, m.Compact[axPOI].f32, nil, js, keep)
	case StorageInt8:
		scoreRows(out, w, m.Compact[axPOI].i8, m.Compact[axPOI].scale, js, keep)
	default:
		scoreRows(out, w, m.U2.Data, nil, js, keep)
	}
}

// scoreRows writes scales[j]·⟨w, slab row j⟩ (without the scale when scales
// is nil) into out[n] for each candidate j = js[n], and −Inf where keep
// excludes j: ScoreCandidates on the storage mode's own slab, one mat.DotRows
// row per candidate.
func scoreRows[E mat.Elem](out, w []float64, slab []E, scales []float64, js []int, keep []bool) {
	r := len(w)
	for n, j := range js {
		if keep != nil && !keep[j] {
			out[n] = math.Inf(-1)
			continue
		}
		mat.DotRows(out[n:n+1], w, slab[j*r:(j+1)*r])
		if scales != nil {
			out[n] = scales[j] * out[n]
		}
	}
}

// VisitProbability returns p[i,j] = 1 − Π_k (1 − X̂[i,j,k]), the probability
// that user i ever visits POI j (Eq 10), with predictions clamped to [0, 1).
func (m *Model) VisitProbability(i, j int) float64 {
	prod := 1.0
	for k := 0; k < m.K; k++ {
		prod *= 1 - mat.Clamp01(m.Predict(i, j, k))
	}
	return 1 - prod
}

// Recommendation is one ranked POI suggestion.
type Recommendation struct {
	POI   int
	Score float64
}

// TimeScores returns the score of (i, j, ·) across every time unit, the
// series plotted in Figure 13.
func (m *Model) TimeScores(i, j int) []float64 {
	out := make([]float64, m.K)
	for k := 0; k < m.K; k++ {
		out[k] = m.Predict(i, j, k)
	}
	return out
}

// TimeFactorSimilarity returns the K×K cosine-similarity matrix between time
// factor rows of U3, the heatmap of Figures 6 and 7.
func (m *Model) TimeFactorSimilarity() *mat.Matrix {
	sim := mat.New(m.K, m.K)
	var ra, rb []float64
	if m.Mode != StorageFloat64 {
		ra, rb = make([]float64, m.Rank), make([]float64, m.Rank)
	}
	for a := 0; a < m.K; a++ {
		for b := 0; b < m.K; b++ {
			var va, vb []float64
			if m.Mode == StorageFloat64 {
				va, vb = m.U3.Row(a), m.U3.Row(b)
			} else {
				va, vb = m.row(axTime, a, ra), m.row(axTime, b, rb)
			}
			sim.Set(a, b, mat.CosineSimilarity(va, vb))
		}
	}
	return sim
}

// Clone returns a deep copy of the model (the zero-out filter is shared,
// since it is immutable once built). Compact slabs are copied onto the heap,
// so a clone of an mmap-backed model outlives the mapping.
func (m *Model) Clone() *Model {
	if m.Mode != StorageFloat64 {
		c := *m.Compact
		for ax := range c {
			c[ax] = c[ax].clone()
		}
		return &Model{
			Rank: m.Rank, I: m.I, J: m.J, K: m.K,
			Mode: m.Mode, Compact: &c,
			H: slices.Clone(m.H), ZeroOutFilter: m.ZeroOutFilter,
		}
	}
	out := NewModel(m.I, m.J, m.K, m.Rank)
	out.U1 = m.U1.Clone()
	out.U2 = m.U2.Clone()
	out.U3 = m.U3.Clone()
	copy(out.H, m.H)
	out.ZeroOutFilter = m.ZeroOutFilter
	return out
}
