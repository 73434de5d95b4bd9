package core

import (
	"fmt"
	"math"
	"math/rand"

	"tcss/internal/mat"
	"tcss/internal/par"
	"tcss/internal/tensor"
	"tcss/internal/train"
)

// Grads accumulates the gradient of the training loss with respect to every
// model parameter.
type Grads struct {
	DU1, DU2, DU3 *mat.Matrix
	DH            []float64
}

// NewGrads allocates a zeroed gradient accumulator shaped like m.
func NewGrads(m *Model) *Grads {
	return &Grads{
		DU1: mat.New(m.I, m.Rank),
		DU2: mat.New(m.J, m.Rank),
		DU3: mat.New(m.K, m.Rank),
		DH:  make([]float64, m.Rank),
	}
}

// groups pairs m's factors with their gradients in g as the training
// engine's parameter groups.
func (g *Grads) groups(m *Model) []train.Group {
	return []train.Group{
		{Name: "U1", Value: m.U1.Data, Grad: g.DU1.Data},
		{Name: "U2", Value: m.U2.Data, Grad: g.DU2.Data},
		{Name: "U3", Value: m.U3.Data, Grad: g.DU3.Data},
		{Name: "h", Value: m.H, Grad: g.DH},
	}
}

// Zero clears the accumulator.
func (g *Grads) Zero() {
	g.DU1.Fill(0)
	g.DU2.Fill(0)
	g.DU3.Fill(0)
	for i := range g.DH {
		g.DH[i] = 0
	}
}

// Add accumulates other into g.
func (g *Grads) Add(other *Grads) {
	g.DU1.AddInPlace(other.DU1)
	g.DU2.AddInPlace(other.DU2)
	g.DU3.AddInPlace(other.DU3)
	for i, v := range other.DH {
		g.DH[i] += v
	}
}

// WholeDataLoss computes L2 of Eq (14) — the class-weighted squared error
// over EVERY tensor cell, treating unlabeled cells as negatives — using the
// rewritten form of Eq (15) whose cost is O(|Ω₊|·r + (I+J+K)·r²) instead of
// O(I·J·K·r). If grads is non-nil the full gradient is accumulated into it.
//
// The returned value includes the constant Σ_{Ω₊} w₊·X² term that Eq (15)
// drops, so it matches the naive Eq (14) evaluation (the equivalence Remark 1
// proves); tests rely on this. It delegates to WholeDataLossWorkers with the
// default worker count.
func (m *Model) WholeDataLoss(x *tensor.COO, wPos, wNeg float64, grads *Grads) float64 {
	return m.WholeDataLossWorkers(x, wPos, wNeg, grads, 0)
}

// lossOverEntries sums fn over the entries, parallelized across contiguous
// shards (tensor.ShardEntries). Each worker accumulates into a private
// gradient shard; shard losses and gradients merge in ascending shard order,
// so the result is reproducible at a fixed worker count and bit-for-bit equal
// to the plain serial loop at workers <= 1.
func (m *Model) lossOverEntries(entries []tensor.Entry, grads *Grads, workers int, fn func(e tensor.Entry, g *Grads) float64) float64 {
	n := len(entries)
	if n == 0 {
		return 0
	}
	w := par.Clamp(workers, n)
	if w <= 1 {
		var loss float64
		for _, e := range entries {
			loss += fn(e, grads)
		}
		return loss
	}
	shards := tensor.ShardEntries(entries, w)
	type shardResult struct {
		loss  float64
		grads *Grads
	}
	var total float64
	par.Reduce(len(shards), len(shards), func(s par.Shard) shardResult {
		var g *Grads
		if grads != nil {
			g = NewGrads(m)
		}
		var loss float64
		for _, e := range shards[s.Index] {
			loss += fn(e, g)
		}
		return shardResult{loss: loss, grads: g}
	}, func(sr shardResult) {
		total += sr.loss
		if grads != nil {
			grads.Add(sr.grads)
		}
	})
	return total
}

// WholeDataLossWorkers is WholeDataLoss with an explicit worker count for the
// positive-entry correction loop (<= 0 selects par.DefaultWorkers). The
// whole-tensor Gram term is O((I+J+K)·r²) and stays serial.
func (m *Model) WholeDataLossWorkers(x *tensor.COO, wPos, wNeg float64, grads *Grads, workers int) float64 {
	r := m.Rank
	// Gram matrices of the factors: G1 = U1ᵀU1 (r×r), etc.
	g1 := m.U1.Gram()
	g2 := m.U2.Gram()
	g3 := m.U3.Gram()

	// Whole-data term: w₋ Σ_{r1,r2} h_{r1}h_{r2} G1·G2·G3 (elementwise).
	var whole float64
	for a := 0; a < r; a++ {
		for b := 0; b < r; b++ {
			whole += m.H[a] * m.H[b] * g1.At(a, b) * g2.At(a, b) * g3.At(a, b)
		}
	}
	loss := wNeg * whole

	// Positive-entry corrections: (w₊−w₋)·X̂² − 2·w₊·X·X̂ + w₊·X²
	// (the last term restores the constant Eq (15) omits).
	loss += m.lossOverEntries(x.Entries(), grads, workers, func(e tensor.Entry, g *Grads) float64 {
		pred := m.Predict(e.I, e.J, e.K)
		if g != nil {
			coeff := 2 * ((wPos-wNeg)*pred - wPos*e.Val)
			m.accumEntryGrad(g, e.I, e.J, e.K, coeff)
		}
		return (wPos-wNeg)*pred*pred - 2*wPos*e.Val*pred + wPos*e.Val*e.Val
	})

	if grads != nil {
		// Gradient of the whole-data term:
		//   ∂/∂U1 = 2·w₋·U1·M1 with M1 = (h hᵀ) ⊙ G2 ⊙ G3, and cyclically;
		//   ∂/∂h_t = 2·w₋ Σ_b h_b (G1⊙G2⊙G3)[t,b].
		m1 := mat.New(r, r)
		m2 := mat.New(r, r)
		m3 := mat.New(r, r)
		for a := 0; a < r; a++ {
			for b := 0; b < r; b++ {
				hh := m.H[a] * m.H[b]
				m1.Set(a, b, hh*g2.At(a, b)*g3.At(a, b))
				m2.Set(a, b, hh*g1.At(a, b)*g3.At(a, b))
				m3.Set(a, b, hh*g1.At(a, b)*g2.At(a, b))
				grads.DH[a] += 2 * wNeg * m.H[b] * g1.At(a, b) * g2.At(a, b) * g3.At(a, b)
			}
		}
		grads.DU1.AddInPlace(m.U1.Mul(m1).Scale(2 * wNeg))
		grads.DU2.AddInPlace(m.U2.Mul(m2).Scale(2 * wNeg))
		grads.DU3.AddInPlace(m.U3.Mul(m3).Scale(2 * wNeg))
	}
	return loss
}

// accumEntryGrad adds coeff·∂X̂[i,j,k]/∂θ to every parameter gradient.
func (m *Model) accumEntryGrad(grads *Grads, i, j, k int, coeff float64) {
	a, b, c := m.U1.Row(i), m.U2.Row(j), m.U3.Row(k)
	da, db, dc := grads.DU1.Row(i), grads.DU2.Row(j), grads.DU3.Row(k)
	for t := 0; t < m.Rank; t++ {
		ht := m.H[t]
		da[t] += coeff * ht * b[t] * c[t]
		db[t] += coeff * ht * a[t] * c[t]
		dc[t] += coeff * ht * a[t] * b[t]
		grads.DH[t] += coeff * a[t] * b[t] * c[t]
	}
}

// NaiveWholeDataLoss evaluates Eq (14) literally with a triple loop over all
// I·J·K cells, with optional gradient accumulation. It exists for the
// equivalence tests against WholeDataLoss and for the Table IV timing
// comparison; never use it for real training.
func (m *Model) NaiveWholeDataLoss(x *tensor.COO, wPos, wNeg float64, grads *Grads) float64 {
	var loss float64
	for i := 0; i < m.I; i++ {
		for j := 0; j < m.J; j++ {
			for k := 0; k < m.K; k++ {
				val := x.At(i, j, k)
				w := wNeg
				if val != 0 {
					w = wPos
				}
				pred := m.Predict(i, j, k)
				diff := pred - val
				loss += w * diff * diff
				if grads != nil {
					m.accumEntryGrad(grads, i, j, k, 2*w*diff)
				}
			}
		}
	}
	return loss
}

// SampleNegatives draws n cells uniformly at random from the unobserved part
// of x by rejection sampling. The Negative Sampling ablation row of Table II
// and the Table IV timing use it. The rejection loop is bounded: after
// 50·n + 1000 attempts (enough for tensors up to ~98% dense with high
// probability) it returns a descriptive error instead of spinning, as it also
// does immediately for a full tensor.
func SampleNegatives(x *tensor.COO, n int, rng *rand.Rand) ([]tensor.Entry, error) {
	if n <= 0 {
		return nil, nil
	}
	if int64(x.NNZ()) >= x.Size() {
		return nil, fmt.Errorf("core: cannot sample %d negatives: tensor %dx%dx%d is full", n, x.DimI, x.DimJ, x.DimK)
	}
	maxAttempts := negAttemptCap(n)
	out := make([]tensor.Entry, 0, n)
	for attempts := 0; len(out) < n; attempts++ {
		if attempts >= maxAttempts {
			return nil, fmt.Errorf("core: sampled only %d of %d negatives after %d attempts (density %.4f): tensor too dense for rejection sampling",
				len(out), n, attempts, x.Density())
		}
		i, j, k := rng.Intn(x.DimI), rng.Intn(x.DimJ), rng.Intn(x.DimK)
		if !x.Has(i, j, k) {
			out = append(out, tensor.Entry{I: i, J: j, K: k, Val: 0})
		}
	}
	return out, nil
}

// negAttemptCap is the most candidates SampleNegatives draws for n negatives.
func negAttemptCap(n int) int { return 50*n + 1000 }

// NegSamplingLoss is the ablation counterpart of WholeDataLoss: the weighted
// squared error over the observed entries plus the given sampled negatives
// only (the strategy of NCF), with optional gradient accumulation. It
// delegates to NegSamplingLossWorkers with the default worker count.
func (m *Model) NegSamplingLoss(x *tensor.COO, negatives []tensor.Entry, wPos, wNeg float64, grads *Grads) float64 {
	return m.NegSamplingLossWorkers(x, negatives, wPos, wNeg, grads, 0)
}

// NegSamplingLossWorkers is NegSamplingLoss with an explicit worker count
// (<= 0 selects par.DefaultWorkers). The positive and negative sweeps are each
// sharded with deterministic in-order reduction, so the result is bit-for-bit
// equal to the serial loops at workers = 1.
func (m *Model) NegSamplingLossWorkers(x *tensor.COO, negatives []tensor.Entry, wPos, wNeg float64, grads *Grads, workers int) float64 {
	loss := m.lossOverEntries(x.Entries(), grads, workers, func(e tensor.Entry, g *Grads) float64 {
		pred := m.Predict(e.I, e.J, e.K)
		diff := pred - e.Val
		if g != nil {
			m.accumEntryGrad(g, e.I, e.J, e.K, 2*wPos*diff)
		}
		return wPos * diff * diff
	})
	loss += m.lossOverEntries(negatives, grads, workers, func(e tensor.Entry, g *Grads) float64 {
		pred := m.Predict(e.I, e.J, e.K)
		if g != nil {
			m.accumEntryGrad(g, e.I, e.J, e.K, 2*wNeg*pred)
		}
		return wNeg * pred * pred
	})
	return loss
}

// PositiveRMSE and NegativeRMSE report the root-mean-squared error of the
// model on the observed (positive, target 1) cells and on a deterministic
// sample of unobserved (target 0) cells. Table III reports both columns.
func (m *Model) PositiveRMSE(x *tensor.COO) float64 {
	if x.NNZ() == 0 {
		return 0
	}
	var s float64
	for _, e := range x.Entries() {
		d := m.Predict(e.I, e.J, e.K) - e.Val
		s += d * d
	}
	return math.Sqrt(s / float64(x.NNZ()))
}

// NegativeRMSE samples n unobserved cells with rng and reports the RMSE of
// predicting them against 0, or NaN when the tensor is too dense to sample
// (see SampleNegatives).
func (m *Model) NegativeRMSE(x *tensor.COO, n int, rng *rand.Rand) float64 {
	if n <= 0 {
		return 0
	}
	negs, err := SampleNegatives(x, n, rng)
	if err != nil {
		return math.NaN()
	}
	var s float64
	for _, e := range negs {
		d := m.Predict(e.I, e.J, e.K)
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}
