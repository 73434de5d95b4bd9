package core

import (
	"fmt"
	"math"
	"sync"

	"tcss/internal/geo"
	"tcss/internal/mat"
	"tcss/internal/par"
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
	Epsilon    float64   // division guard, paper default 1e-6

	// Per-user min-distance cache. minDOnce[i] guards minD[i], so concurrent
	// workers hitting different users never contend on a shared lock (the
	// global-mutex map this replaces serialized the whole user-parallel loop
	// on its first epoch). cacheInit sizes both slices on first use.
	cacheInit sync.Once
	minD      [][]float64
	minDOnce  []sync.Once
	rows      *distRows // the friend-POI rows the head reads
}

// NewHausdorff builds the loss head with the paper's default α = −1 and
// ε = 1e-6. entropyW may be nil to disable location-entropy weighting.
func NewHausdorff(dist *geo.DistanceMatrix, entropyW []float64, friendPOIs [][]int) *Hausdorff {
	if entropyW != nil && len(entropyW) != dist.N {
		panic(fmt.Sprintf("core: entropy weights %d vs %d POIs", len(entropyW), dist.N))
	}
	return &Hausdorff{
		Dist: dist, EntropyW: entropyW, FriendPOIs: friendPOIs,
		Alpha: -1, Epsilon: 1e-6, rows: newDistRows(dist),
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
	xhat  []float64   // J*K raw predictions, slab layout [j*K+k]
	dpdx  []float64   // J*K ∂p_j/∂x̂_k partial products
	p     []float64   // J visit probabilities
	dn    []float64   // J shifted normalized distances d(j,j')/d_max − 1 to one friend POI
	f     []float64   // J term-2 operands
	finv  []float64   // J reciprocals 1/f_j (harmonic fast path)
	dLdp  []float64   // J loss-probability gradients
	slab  []float64   // 2r slab-kernel scratch
	prefs []float64   // 2(K+1): prefix and suffix no-visit products
	gRow  []float64   // r accumulator for one chain-rule row G[j] = Σ_k C[j][k]·U3[k]
	hk    *mat.Matrix // K×r chain-rule factor H = Cᵀ·U2
	q     []float64   // r column sums Σ_j U2[j]⊙G[j]
}

func newHausdorffScratch(m *Model) *hausdorffScratch {
	J, K, r := m.J, m.K, m.Rank
	return &hausdorffScratch{
		xhat:  make([]float64, J*K),
		dpdx:  make([]float64, J*K),
		p:     make([]float64, J),
		dn:    make([]float64, J),
		f:     make([]float64, J),
		finv:  make([]float64, J),
		dLdp:  make([]float64, J),
		slab:  make([]float64, 2*r),
		prefs: make([]float64, 2*(K+1)),
		gRow:  make([]float64, r),
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

	// Step 1: the full J×K prediction slice via the slab GEMM kernel, then
	// visit probabilities p_j = 1 − Π_k (1−x̂) and the per-(j,k) partial
	// products ∂p_j/∂X̂[i,j,k] = Π_{k'≠k}(1−X̂[i,j,k']).
	xhat, dpdx, p := sc.xhat, sc.dpdx, sc.p
	m.ScoreSlabScratch(i, xhat, sc.slab)
	prefix := sc.prefs[:K+1]
	oneMinus := sc.prefs[K+1 : K+1+K] // cached 1−clamp01(x̂) per k
	for j := 0; j < J; j++ {
		row := xhat[j*K : (j+1)*K]
		prefix[0] = 1
		for k, x := range row {
			om := 1 - clamp01(x)
			oneMinus[k] = om
			prefix[k+1] = prefix[k] * om
		}
		p[j] = 1 - prefix[K]
		// ∂p_j/∂x̂_k = prefix[k]·suffix[k+1]; build the suffix product on the
		// fly right-to-left so no second clamp pass is needed.
		drow := dpdx[j*K : (j+1)*K]
		suf := 1.0
		for k := K - 1; k >= 0; k-- {
			x := row[k]
			if x <= 0 || x >= 1-1e-9 {
				drow[k] = 0 // clamp saturated: no gradient
			} else {
				drow[k] = prefix[k] * suf
			}
			suf *= oneMinus[k]
		}
	}

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
	denom := sumA + h.Epsilon
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
	f, finv, dn := sc.f[:J], sc.finv[:J], sc.dn[:J]
	// With the shifted normalized distances dn_j = d(j,jp)/d_max − 1 the
	// factor f_j = p_j·d'(j,jp) + (1−p_j)·d_max collapses to p_j·dn_j + 1:
	// one multiply-add per (friend, POI) pair. The forward loop keeps each
	// dn_j in a J-length row, where the gradient pass reads ∂f_j/∂p_j = dn_j.
	scale := h.invDMax()
	for _, jp := range friendSet {
		var s float64
		drow := h.rows.row(jp)[:J]
		if harmonic {
			// Cache each reciprocal: the gradient pass needs 1/f_j² and a
			// multiply by the stored reciprocal replaces a second division,
			// the dominant instruction of this loop. Clamped entries store a
			// zero reciprocal so the gradient loop below is branch-free (a
			// clamp has zero gradient, and 0² · dn contributes exactly that).
			for j := 0; j < J; j++ {
				dnj := drow[j]*scale - 1
				dn[j] = dnj
				fj := p[j]*dnj + 1
				if fj < fMin {
					s += 1 / fMin
					finv[j] = 0
					continue
				}
				inv := 1 / fj
				finv[j] = inv
				s += inv
			}
		} else {
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
		}
		mean := s / float64(J)
		var mVal float64
		if harmonic {
			mVal = 1 / mean
		} else {
			mVal = math.Pow(mean, 1/alpha)
		}
		w := h.entropy(jp) * invN
		loss += w * mVal
		if grads != nil {
			// ∂M/∂f_j = mean^(1/α−1) · f_j^(α−1) / J.
			if harmonic {
				wb := w / (mean * mean * float64(J))
				dl := dLdp[:J]
				for j, iv := range finv {
					dl[j] += wb * iv * iv * dn[j]
				}
			} else {
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
	// which is O(J·K·r) total in one tight GEMM-style pass over C rather than
	// J·K bounds-checked row scatters: for each (j,k) with a nonzero
	// coefficient, one fused inner loop extends both the G[j] accumulator
	// (axpy over U3[k]) and H[k] (axpy over U2[j]), so C is swept exactly once
	// and never materialized. G rows are consumed immediately (DU2 and q
	// updates), so only an r-length accumulator is held.
	if grads != nil {
		r := m.Rank
		u1row := m.U1.Row(i)
		q := sc.q
		for t := range q {
			q[t] = 0
		}
		grow := sc.gRow // accumulator for G[j] = Σ_k C[j][k]·U3[k]
		sc.hk.Fill(0)
		hkd := sc.hk.Data
		du2 := grads.DU2
		for j := 0; j < J; j++ {
			d := dLdp[j]
			if d == 0 {
				continue
			}
			crow := dpdx[j*K : (j+1)*K]
			u2row := m.U2.Row(j)
			for t := range grow {
				grow[t] = 0
			}
			for k, dp := range crow {
				cv := dp * d
				if cv == 0 {
					continue
				}
				u3row := m.U3.Row(k)
				// Reslicing every operand to the range length lets the
				// compiler drop the three per-element bounds checks in the
				// fused axpy below.
				hrow := hkd[k*r : k*r+r][:len(u3row)]
				g := grow[:len(u3row)]
				u2 := u2row[:len(u3row)]
				for t, u := range u3row {
					g[t] += cv * u
					hrow[t] += cv * u2[t]
				}
			}
			drow := du2.Row(j)
			for t := 0; t < r; t++ {
				drow[t] += m.H[t] * u1row[t] * grow[t]
				q[t] += u2row[t] * grow[t]
			}
		}
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

// Loss computes the social Hausdorff head L1 = Σ_v d_WH (Eq 13) over the
// given users (pass all users for the exact loss, a subsample for a
// stochastic estimate) with the default worker count. When grads is non-nil
// the gradient is accumulated into it.
func (h *Hausdorff) Loss(m *Model, users []int, grads *Grads) float64 {
	return h.LossWorkers(m, users, grads, 0)
}

// LossWorkers is Loss with an explicit worker count (<= 0 selects
// par.DefaultWorkers). Users are split into contiguous shards; each worker
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
