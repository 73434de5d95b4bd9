package core

import (
	"fmt"
	"math"
	"sync"

	"tcss/internal/geo"
	"tcss/internal/mat"
	"tcss/internal/par"
	"tcss/internal/train"
)

// Hausdorff evaluates the social Hausdorff distance loss head L1 (Eq 12-13):
// for each user, the location-entropy-weighted, probability-weighted average
// Hausdorff distance between the user's predicted POI distribution S(v) and
// the set N(v) of POIs the user's friends visited. Both Eq (10) terms are
// implemented, with the smooth minimum M_α making the second term
// differentiable in the visit probabilities.
// All distances inside the head are normalized by d_max, making the loss
// dimensionless: d'(j,j') = d(j,j')/d_max ∈ [0,1] and the far-POI penalty is
// exactly 1. This only rescales λ (the paper's raw-kilometer formulation is
// recovered by multiplying λ by d_max) but keeps the head's gradients on the
// same scale as the least-squares head, which matters for Adam's
// second-moment estimates: with raw kilometers and a continental d_max the
// head's spikes on friend-POI rows would dwarf the L2 gradients and freeze
// exactly the embeddings the recommendations depend on.
type Hausdorff struct {
	Dist       *geo.DistanceMatrix
	EntropyW   []float64 // e_j = exp(−E_j) per POI (Eq 11/12); nil disables weighting
	FriendPOIs [][]int   // N(v) per user; empty slice skips the user
	Alpha      float64   // smooth-minimum exponent, paper default −1

	// Per-user min-distance cache. minDOnce[i] guards minD[i], so concurrent
	// workers hitting different users never contend on a shared lock (the
	// global-mutex map this replaces serialized the whole user-parallel loop
	// on its first epoch). cacheInit sizes both slices on first use.
	cacheInit sync.Once
	minD      [][]float64
	minDOnce  []sync.Once
	rows      *distRows // the friend-POI rows the head reads
}

// NewHausdorff builds the loss head with the paper's default α = −1; its
// division guard is the constant eps. entropyW may be nil to disable
// location-entropy weighting.
func NewHausdorff(dist *geo.DistanceMatrix, entropyW []float64, friendPOIs [][]int) *Hausdorff {
	if entropyW != nil && len(entropyW) != dist.N {
		panic(fmt.Sprintf("core: entropy weights %d vs %d POIs", len(entropyW), dist.N))
	}
	return &Hausdorff{
		Dist: dist, EntropyW: entropyW, FriendPOIs: friendPOIs,
		Alpha: -1, rows: newDistRows(dist),
	}
}

// distRows caches whole distance rows for the training loops that sweep
// them: each row is computed from the coordinates on its first read, under
// its own sync.Once, so it costs N Haversines once and concurrent readers of
// different rows never contend. Only the rows read are ever held.
type distRows struct {
	dist *geo.DistanceMatrix
	once []sync.Once
	rows [][]float64
}

func newDistRows(dist *geo.DistanceMatrix) *distRows {
	return &distRows{dist: dist, once: make([]sync.Once, dist.N), rows: make([][]float64, dist.N)}
}

// row returns the distances from POI j to every POI.
func (c *distRows) row(j int) []float64 {
	c.once[j].Do(func() { c.rows[j] = c.dist.Row(j, make([]float64, c.dist.N)) })
	return c.rows[j]
}

// lower sets each dst[k] to the distance between POIs j and k where that is
// smaller, as Nearest compares (a NaN distance never wins).
func (c *distRows) lower(dst []float64, j int) {
	for k, d := range c.row(j)[:len(dst)] {
		if d < dst[k] {
			dst[k] = d
		}
	}
}

func (h *Hausdorff) entropy(j int) float64 {
	if h.EntropyW == nil {
		return 1
	}
	return h.EntropyW[j]
}

// minDistances returns, for user i, min_{j'∈N(v_i)} d(j, j')/d_max for every
// POI j. The result is computed once per user under a per-user sync.Once (it
// depends only on the fixed friend sets) and shared by all workers.
func (h *Hausdorff) minDistances(i int) []float64 {
	h.cacheInit.Do(func() {
		h.minD = make([][]float64, len(h.FriendPOIs))
		h.minDOnce = make([]sync.Once, len(h.FriendPOIs))
	})
	h.minDOnce[i].Do(func() {
		out := make([]float64, h.Dist.N)
		for j := range out {
			out[j] = math.Inf(1)
		}
		for _, jp := range h.FriendPOIs[i] {
			h.rows.lower(out, jp)
		}
		inv := h.invDMax()
		for j := range out {
			out[j] *= inv
		}
		h.minD[i] = out
	})
	return h.minD[i]
}

// invDMax returns the normalization factor 1/d_max (1 when all POIs are
// co-located, so a degenerate geometry stays finite).
func (h *Hausdorff) invDMax() float64 {
	if h.Dist.DMax <= 0 {
		return 1
	}
	return 1 / h.Dist.DMax
}

// hausdorffScratch holds every per-user work buffer of userLoss so a worker
// can sweep its whole user shard without allocating. Sized for one (J, K, r)
// model shape.
type hausdorffScratch struct {
	w     []float64    // r slab weights h ⊙ U1ᵢ
	dpdx  []float64    // J*K ∂p_j/∂x̂_k partial products
	p     []float64    // J visit probabilities
	dn    [2][]float64 // J shifted normalized distances d(j,j')/d_max − 1 to each of two friend POIs
	f     []float64    // J term-2 operands (α ≠ −1)
	finv  [2][]float64 // J reciprocals 1/f_j to each of two friend POIs (α = −1)
	dLdp  []float64    // J loss-probability gradients
	probs []float64    // mat.SlabVisitProbs scratch
	g     []float64    // max(r, K) mat.HeadChainRule scratch
	ks    []int        // K mat.HeadChainRule slot offsets
	hk    *mat.Matrix  // K×r chain-rule factor H = Cᵀ·U2
	q     []float64    // r column sums Σ_j U2[j]⊙G[j]
}

func newHausdorffScratch(m *Model) *hausdorffScratch {
	J, K, r := m.J, m.K, m.Rank
	return &hausdorffScratch{
		w:     make([]float64, r),
		dpdx:  make([]float64, J*K),
		p:     make([]float64, J),
		dn:    [2][]float64{make([]float64, J), make([]float64, J)},
		f:     make([]float64, J),
		finv:  [2][]float64{make([]float64, J), make([]float64, J)},
		dLdp:  make([]float64, J),
		probs: make([]float64, mat.SlabVisitProbsScratch(K, r)),
		g:     make([]float64, max(r, K)),
		ks:    make([]int, K),
		hk:    mat.New(K, r),
		q:     make([]float64, r),
	}
}

// userLoss computes d_WH(S(v_i), N(v_i)) of Eq (12) for one user and, when
// grads is non-nil, accumulates its gradient with respect to every model
// parameter. Users without friend-visited POIs contribute zero. sc is the
// calling worker's scratch.
func (h *Hausdorff) userLoss(m *Model, i int, grads *Grads, sc *hausdorffScratch) float64 {
	friendSet := h.FriendPOIs[i]
	if len(friendSet) == 0 {
		return 0
	}
	J, K := m.J, m.K
	// Guard so f_j^α is finite even when a POI coincides with a friend POI
	// and p→1 (distance 0).
	const fMin = 1e-4

	// Step 1: the J×K prediction slice X̂[i,·,·] = U2·diag(h ⊙ U1ᵢ)·U3ᵀ,
	// scored four POIs at a time straight into the visit probabilities
	// p_j = 1 − Π_k (1−x̂) and the per-(j,k) partial products
	// ∂p_j/∂X̂[i,j,k] = Π_{k'≠k}(1−X̂[i,j,k']); the slice itself is never
	// stored. Training models are float64, so the factors are read in place.
	dpdx, p := sc.dpdx, sc.p
	mat.HadamardInto(sc.w, m.H, m.U1.Row(i))
	mat.SlabVisitProbs(p, dpdx, m.U2.Data, sc.w, m.U3.Data, sc.probs)

	minD := h.minDistances(i)
	dLdp := sc.dLdp
	for j := range dLdp {
		dLdp[j] = 0
	}

	// Term 1: (1/(A+ε)) Σ_j p_j·e_j·minD_j.
	var sumA, sumB float64
	for j := 0; j < J; j++ {
		sumA += p[j]
		sumB += p[j] * h.entropy(j) * minD[j]
	}
	denom := sumA + eps
	loss := sumB / denom
	if grads != nil {
		inv2 := 1 / (denom * denom)
		for j := 0; j < J; j++ {
			dLdp[j] += (h.entropy(j)*minD[j]*denom - sumB) * inv2
		}
	}

	// Term 2: (1/|N|) Σ_{j'∈N} e_{j'}·M_α over j of
	// [p_j·d(j,j') + (1−p_j)·d_max].
	alpha := h.Alpha
	harmonic := alpha == -1 // the paper default; avoids math.Pow in the hot loop
	invN := 1 / float64(len(friendSet))
	// With the shifted normalized distances dn_j = d(j,jp)/d_max − 1 the
	// factor f_j = p_j·d'(j,jp) + (1−p_j)·d_max collapses to p_j·dn_j + 1:
	// one multiply-add per (friend, POI) pair. The forward sweep keeps each
	// dn_j in a J-length row, where the gradient sweep reads ∂f_j/∂p_j = dn_j.
	scale := h.invDMax()
	if harmonic {
		// Two friend POIs per sweep, each with its own running sum over
		// ascending j; a lone last one is passed as both. Each reciprocal is
		// kept: the gradient sweep needs 1/f_j² and a multiply by the stored
		// reciprocal replaces a second division, the dominant instruction of
		// the sweep. Clamped entries store a zero reciprocal so the gradient
		// sweep is branch-free (a clamp has zero gradient, and 0² · dn
		// contributes exactly that).
		dn, finv := sc.dn, sc.finv
		for n := 0; n < len(friendSet); n += 2 {
			pair := friendSet[n:min(n+2, len(friendSet))]
			rowA := h.rows.row(pair[0])
			rowB := rowA
			if len(pair) == 2 {
				rowB = h.rows.row(pair[1])
			}
			var s, wb [2]float64
			s[0], s[1] = mat.HarmonicSums(p, rowA, rowB, dn[0], dn[1], finv[0], finv[1], scale, fMin, 1/fMin)
			for x, jp := range pair {
				mean := s[x] / float64(J)
				mVal := 1 / mean
				w := h.entropy(jp) * invN
				loss += w * mVal
				// ∂M/∂f_j = mean^(1/α−1) · f_j^(α−1) / J.
				wb[x] = w / (mean * mean * float64(J))
			}
			if grads == nil {
				continue
			}
			if len(pair) == 2 {
				mat.HarmonicGrad(dLdp, wb[0], dn[0], finv[0], wb[1], dn[1], finv[1])
			} else {
				mat.HarmonicGrad(dLdp, wb[0], dn[0], finv[0], 0, nil, nil)
			}
		}
	} else {
		f, dn := sc.f[:J], sc.dn[0][:J]
		for _, jp := range friendSet {
			var s float64
			drow := h.rows.row(jp)[:J]
			for j := 0; j < J; j++ {
				dnj := drow[j]*scale - 1
				dn[j] = dnj
				fj := p[j]*dnj + 1
				if fj < fMin {
					fj = fMin
				}
				f[j] = fj
				s += math.Pow(fj, alpha)
			}
			mean := s / float64(J)
			mVal := math.Pow(mean, 1/alpha)
			w := h.entropy(jp) * invN
			loss += w * mVal
			if grads != nil {
				// ∂M/∂f_j = mean^(1/α−1) · f_j^(α−1) / J.
				base := math.Pow(mean, 1/alpha-1) / float64(J)
				for j := 0; j < J; j++ {
					if f[j] <= fMin {
						continue // clamped: no gradient
					}
					dLdp[j] += w * base * math.Pow(f[j], alpha-1) * dn[j]
				}
			}
		}
	}

	// Chain rule: C[j][k] = dL/dX̂[i,j,k] = dL/dp_j · ∂p_j/∂x̂. Instead of a
	// scalar accumEntryGrad per (j,k) cell — which profiles as >60% of the
	// whole head — contract C once against each factor:
	//
	//	G[j] = Σ_k C[j][k]·U3[k]: ∂L/∂U2[j] = (h ⊙ U1ᵢ) ⊙ G[j]
	//	H = Cᵀ·U2 (K×r):          ∂L/∂U3[k] = (h ⊙ U1ᵢ) ⊙ H[k]
	//	q = Σ_j U2[j]⊙G[j]:       ∂L/∂U1[i] = h ⊙ q,  ∂L/∂h = U1ᵢ ⊙ q
	//
	// which is O(J·K·r) total in one pass over C (mat.HeadChainRule) that
	// never materializes it; the K×r H and the r-length q are folded into
	// ∂L/∂U3, ∂L/∂U1 and ∂L/∂h afterwards.
	if grads != nil {
		r := m.Rank
		u1row := m.U1.Row(i)
		q := sc.q
		for t := range q {
			q[t] = 0
		}
		sc.hk.Fill(0)
		hkd := sc.hk.Data
		mat.HeadChainRule(grads.DU2.Data, hkd, q, dLdp, dpdx, m.U2.Data, m.U3.Data, m.H, u1row, sc.g, sc.ks)
		du1 := grads.DU1.Row(i)
		for t := 0; t < r; t++ {
			du1[t] += m.H[t] * q[t]
			grads.DH[t] += u1row[t] * q[t]
		}
		du3 := grads.DU3
		for k := 0; k < K; k++ {
			hrow := hkd[k*r : k*r+r]
			drow := du3.Row(k)
			for t := 0; t < r; t++ {
				drow[t] += m.H[t] * u1row[t] * hrow[t]
			}
		}
	}
	return loss
}

// LossWorkers computes the social Hausdorff head L1 = Σ_v d_WH (Eq 13) over
// the given users (pass all users for the exact loss, a subsample for a
// stochastic estimate) on workers goroutines (<= 0 selects
// par.DefaultWorkers). When grads is non-nil the gradient is accumulated
// into it. Users are split into contiguous shards; each worker
// reuses one scratch and, when grads is non-nil, accumulates into a private
// gradient shard. Shard losses and gradients are combined in ascending shard
// order, so the result is run-to-run reproducible at a fixed worker count
// and bit-for-bit equal to the serial loop at workers = 1.
func (h *Hausdorff) LossWorkers(m *Model, users []int, grads *Grads, workers int) float64 {
	n := len(users)
	if n == 0 {
		return 0
	}
	w := par.Clamp(workers, n)
	if w <= 1 {
		sc := newHausdorffScratch(m)
		var total float64
		for _, i := range users {
			total += h.userLoss(m, i, grads, sc)
		}
		return total
	}
	type shardResult struct {
		loss  float64
		grads *Grads
	}
	var total float64
	par.Reduce(n, w, func(s par.Shard) shardResult {
		var g *Grads
		if grads != nil {
			g = NewGrads(m)
		}
		sc := newHausdorffScratch(m)
		var loss float64
		for _, i := range users[s.Start:s.End] {
			loss += h.userLoss(m, i, g, sc)
		}
		return shardResult{loss: loss, grads: g}
	}, func(r shardResult) {
		total += r.loss
		if grads != nil {
			grads.Add(r.grads)
		}
	})
	return total
}

// trainHead is the λ-weighted head the training engine composes: each epoch
// it evaluates L1 over the users that users() names, scaled by the factor
// users() returns with them (the full user count over a subsample's, 1 for
// none), and adds λ·scale·∇L1 into grads.
func (h *Hausdorff) trainHead(m *Model, grads *Grads, lambda float64, workers int, users func() ([]int, float64)) train.Head {
	headGrads := NewGrads(m)
	return train.Head{W: lambda, Loss: func(int) (float64, error) {
		headGrads.Zero()
		us, scale := users()
		l1 := h.LossWorkers(m, us, headGrads, workers) * scale
		w := lambda * scale
		grads.DU1.AddInPlace(headGrads.DU1.Scale(w))
		grads.DU2.AddInPlace(headGrads.DU2.Scale(w))
		grads.DU3.AddInPlace(headGrads.DU3.Scale(w))
		for t := range grads.DH {
			grads.DH[t] += w * headGrads.DH[t]
		}
		return l1, nil
	}}
}
