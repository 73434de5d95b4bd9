package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tcss/internal/mat"
)

// ErrCompactModel marks operations that need float64 factors but found a
// compact (f32/int8) or mmap-backed model. Callers should Decompress first —
// or, for growth, route the write to a float64 replica; serving maps this to
// 503 rather than a generic failure.
var ErrCompactModel = errors.New("core: model factors are not float64 storage")

// ErrOutOfRange marks an online entry outside the model's dimensions:
// UpdateOnline never grows the model, so its caller must grow it first (the
// tcss observe transaction does). Serving maps this to 409 so clients can
// distinguish "the model has not grown yet" from a malformed request.
var ErrOutOfRange = errors.New("core: entry outside model dimensions")

// GrowthHints supplies the side knowledge Grow uses to warm-start appended
// factor rows. All fields are optional; rows without hints fall back to the
// column-mean direction of the existing factors (the dominant direction of
// the learned subspace, which is what the spectral initialization would
// estimate for a history-less entity).
type GrowthHints struct {
	// Friends maps a new user row to existing user ids; the new U1 row
	// starts at the mean of the friends' rows (social homophily: friends
	// co-visit, so a newcomer's taste is best estimated by their circle).
	Friends map[int][]int
	// NearPOIs maps a new POI row to geographically-near existing POI ids;
	// the new U2 row starts at their mean (Tobler's law: near POIs draw
	// similar crowds).
	NearPOIs map[int][]int
	// Random disables warm-starting entirely: new rows are drawn uniform on
	// [0, 1/√r) as RandomInit would. Exists for the warm-vs-random ablation
	// (OnlineConfig.RandomGrowth).
	Random bool
	// Seed drives the symmetry-breaking noise blended into warm rows.
	Seed int64
}

// Grow extends the model to newI users and newJ POIs in place, appending
// warm-started rows to U1/U2. Dimensions only grow; the time axis K is the
// calendar and never changes. Existing rows are preserved bit-identically, so
// predictions for old (i,j,k) cells shift only through subsequent training —
// the invariant that lets readers of an older-generation snapshot coexist
// with a grown successor.
//
// Row id gaps are allowed (a sharded deployment numbers new entities
// globally, so one shard sees non-contiguous ids): rows between the old and
// new dimension without hints get the column-mean fallback and become real
// entities if check-ins ever arrive for them.
func (m *Model) Grow(newI, newJ int, hints *GrowthHints) error {
	if newI < m.I || newJ < m.J {
		return fmt.Errorf("core: Grow cannot shrink %dx%d to %dx%d", m.I, m.J, newI, newJ)
	}
	if newI == m.I && newJ == m.J {
		return nil
	}
	if m.Mode != StorageFloat64 {
		return fmt.Errorf("core: Grow on %v model: %w", m.Mode, ErrCompactModel)
	}
	if hints == nil {
		hints = &GrowthHints{}
	}
	rng := rand.New(rand.NewSource(hints.Seed))
	oldI, oldJ := m.I, m.J
	m.U1 = growFactor(m.U1, newI, hints.Friends, hints.Random, rng)
	m.U2 = growFactor(m.U2, newJ, hints.NearPOIs, hints.Random, rng)
	if m.ZeroOutFilter != nil {
		m.ZeroOutFilter = growZeroOut(m.ZeroOutFilter, oldI, oldJ, newI, newJ)
	}
	m.I, m.J = newI, newJ
	return nil
}

// growFactor returns a newRows×r matrix whose first u.Rows rows are u's and
// whose appended rows are warm-started: the mean of the hinted source rows
// (only sources below the row's own index contribute, so hints may chain
// through other arrivals) plus non-negative symmetry-breaking noise at the
// same relative magnitude the spectral initialization uses. Without usable
// hints a row starts at the column means of the existing factors.
func growFactor(u *mat.Matrix, newRows int, srcs map[int][]int, random bool, rng *rand.Rand) *mat.Matrix {
	r := u.Cols
	out := mat.New(newRows, r)
	copy(out.Data[:u.Rows*r], u.Data)
	if newRows == u.Rows {
		return out
	}
	if random {
		scale := 1.0 / math.Sqrt(float64(r))
		for i := u.Rows * r; i < newRows*r; i++ {
			out.Data[i] = rng.Float64() * scale
		}
		return out
	}
	colMean := make([]float64, r)
	for i := 0; i < u.Rows; i++ {
		row := u.Row(i)
		for t := range colMean {
			colMean[t] += row[t]
		}
	}
	for t := range colMean {
		colMean[t] /= float64(u.Rows)
	}
	targetRMS := initTargetRMS(r)
	for i := u.Rows; i < newRows; i++ {
		row := out.Row(i)
		n := 0
		for _, s := range srcs[i] {
			if s < 0 || s >= i {
				continue
			}
			src := out.Row(s)
			for t := range row {
				row[t] += src[t]
			}
			n++
		}
		if n > 0 {
			for t := range row {
				row[t] /= float64(n)
			}
		} else {
			copy(row, colMean)
		}
		for t := range row {
			row[t] += math.Abs(rng.NormFloat64()) * initBlendNoise * targetRMS
		}
	}
	return out
}

// growZeroOut extends the zero-out filter permissively: rows and columns
// without distance history allow every POI until the filter is next rebuilt
// from real side information.
func growZeroOut(zf [][]bool, oldI, oldJ, newI, newJ int) [][]bool {
	out := make([][]bool, newI)
	for i := 0; i < oldI; i++ {
		row := zf[i]
		if newJ > oldJ {
			nr := make([]bool, newJ)
			copy(nr, row)
			for j := oldJ; j < newJ; j++ {
				nr[j] = true
			}
			row = nr
		}
		out[i] = row
	}
	for i := oldI; i < newI; i++ {
		nr := make([]bool, newJ)
		for j := range nr {
			nr[j] = true
		}
		out[i] = nr
	}
	return out
}
