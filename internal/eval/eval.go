// Package eval implements the paper's evaluation protocol (§V-C): for every
// held-out interaction (i, j, k), sample 100 random other POIs, score all 101
// candidates, and measure whether the true POI ranks in the top 10 (Hit@10)
// and its reciprocal rank (MRR). MRR is averaged per user first and then
// across users, as the paper specifies. The package also provides plain RMSE
// and a Scorer interface every model in the repository implements.
package eval

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"tcss/internal/par"
	"tcss/internal/tensor"
)

// Scorer scores a (user, POI, time) triple; higher means more recommended.
// Matrix-completion baselines ignore k.
type Scorer interface {
	Score(i, j, k int) float64
}

// CandidateScorer is an optional fast path for Rank: scoring every candidate
// POI of one test entry in a single call lets the model hoist the per-(user,
// time) work out of the candidate loop (core.Model factors h ⊙ U1ᵢ ⊙ U3ₖ once
// and reduces each candidate to one rank-length dot product). Implementations
// must order out[n] to match js[n] and apply the same filtering as Score so
// target and negatives round identically.
type CandidateScorer interface {
	ScoreCandidates(i, k int, js []int, out []float64)
}

// ScorerFunc adapts a plain function to the Scorer interface.
type ScorerFunc func(i, j, k int) float64

// Score implements Scorer.
func (f ScorerFunc) Score(i, j, k int) float64 { return f(i, j, k) }

// Config controls the ranking protocol.
type Config struct {
	// Negatives is the number of random non-target POIs ranked against each
	// test entry; the paper uses 100.
	Negatives int
	// TopK is the Hit@K cutoff; the paper reports Hit@10.
	TopK int
	// Seed drives the negative sampling, making evaluations repeatable and
	// comparable across models.
	Seed int64
}

// DefaultConfig returns the paper's protocol: 100 negatives, Hit@10.
func DefaultConfig() Config { return Config{Negatives: 100, TopK: 10, Seed: 1} }

// Result holds the two headline metrics.
type Result struct {
	HitAtK float64
	MRR    float64
}

// String renders a result row.
func (r Result) String() string { return fmt.Sprintf("Hit@K=%.4f MRR=%.4f", r.HitAtK, r.MRR) }

// Rank evaluates the scorer on the held-out entries of a tensor with
// dimensions (dimJ POIs needed for negative sampling). For each test entry it
// draws cfg.Negatives distinct random POIs different from the target, scores
// the 101 candidates at the entry's (i, k), and computes the rank of the
// target (1 = best; ties broken pessimistically so a constant scorer gets no
// credit). It delegates to RankWorkers with the default worker count.
func Rank(s Scorer, test []tensor.Entry, dimJ int, cfg Config) Result {
	return RankWorkers(s, test, dimJ, cfg, 0)
}

// entryRNG is a splitmix64 stream seeded independently per test entry.
// Seeding per entry instead of streaming one shared RNG across the test set
// makes every entry's negative sample — and therefore every metric —
// bit-for-bit identical at any worker count and any sharding. It is also far
// cheaper than seeding a math/rand source per entry, which initializes a
// 607-word lagged-Fibonacci state each time.
type entryRNG uint64

func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// newEntryRNG derives the stream for one entry index. Running the finalizer
// over seed + (idx+1)·γ starts each entry at an effectively random position of
// the γ-orbit, so consecutive entries' streams do not overlap in practice.
func newEntryRNG(seed int64, idx int) entryRNG {
	return entryRNG(splitmix64(uint64(seed) + (uint64(idx)+1)*0x9E3779B97F4A7C15))
}

func (r *entryRNG) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	return splitmix64(uint64(*r))
}

// intn returns a uniform int in [0, n) via Lemire's multiply-shift reduction.
func (r *entryRNG) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// RankWorkers is Rank with an explicit worker count (<= 0 selects
// par.DefaultWorkers). Per-entry ranks are computed in parallel — each worker
// reuses one generation-marked []int candidate-dedup scratch instead of
// allocating a map per entry, and scorers implementing CandidateScorer are
// scored one batched call per entry — then aggregated serially in test order,
// so the result is identical at any worker count.
func RankWorkers(s Scorer, test []tensor.Entry, dimJ int, cfg Config, workers int) Result {
	if cfg.Negatives <= 0 || cfg.TopK <= 0 {
		panic(fmt.Sprintf("eval: invalid config %+v", cfg))
	}
	if len(test) == 0 {
		return Result{}
	}
	cs, batched := s.(CandidateScorer)
	ranks := make([]int, len(test))
	par.Do(len(test), par.Clamp(workers, len(test)), func(sh par.Shard) {
		// mark[j] == idx marks POI j as already drawn for entry idx: a
		// generation counter needs no clearing between entries, unlike the
		// per-entry map it replaces.
		mark := make([]int, dimJ)
		for j := range mark {
			mark[j] = -1
		}
		// js[0] holds the target so a batched scorer ranks target and
		// negatives from the same call (identical rounding); scores aligns.
		js := make([]int, 0, cfg.Negatives+1)
		scores := make([]float64, cfg.Negatives+1)
		for idx := sh.Start; idx < sh.End; idx++ {
			e := test[idx]
			rng := newEntryRNG(cfg.Seed, idx)
			js = append(js[:0], e.J)
			seen := 0
			for len(js)-1 < cfg.Negatives {
				j := rng.intn(dimJ)
				if j == e.J || mark[j] == idx {
					// With fewer POIs than requested negatives, stop after
					// exhausting the candidate pool.
					if seen >= dimJ-1 {
						break
					}
					continue
				}
				mark[j] = idx
				seen++
				js = append(js, j)
			}
			out := scores[:len(js)]
			if batched {
				cs.ScoreCandidates(e.I, e.K, js, out)
			} else {
				for n, j := range js {
					out[n] = s.Score(e.I, j, e.K)
				}
			}
			// Rank = 1 + #negatives scoring >= target (pessimistic on ties).
			target := out[0]
			rank := 1
			for _, v := range out[1:] {
				if v >= target {
					rank++
				}
			}
			ranks[idx] = rank
		}
	})

	var hits int
	// Per-user reciprocal-rank accumulation (paper: average per user along
	// time, then across users).
	userRR := make(map[int]*meanAcc)
	for idx, e := range test {
		rank := ranks[idx]
		if rank <= cfg.TopK {
			hits++
		}
		acc := userRR[e.I]
		if acc == nil {
			acc = &meanAcc{}
			userRR[e.I] = acc
		}
		acc.add(1 / float64(rank))
	}

	// Iterate users in sorted order so the floating-point sum (and thus the
	// reported MRR) is bit-for-bit deterministic.
	users := make([]int, 0, len(userRR))
	for u := range userRR {
		users = append(users, u)
	}
	sort.Ints(users)
	var mrr meanAcc
	for _, u := range users {
		mrr.add(userRR[u].mean())
	}
	return Result{
		HitAtK: float64(hits) / float64(len(test)),
		MRR:    mrr.mean(),
	}
}

type meanAcc struct {
	sum float64
	n   int
}

func (a *meanAcc) add(v float64) { a.sum += v; a.n++ }
func (a *meanAcc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// RMSE returns the root-mean-squared error of the scorer against the test
// entries' values.
func RMSE(s Scorer, test []tensor.Entry) float64 {
	if len(test) == 0 {
		return 0
	}
	var sum float64
	for _, e := range test {
		d := s.Score(e.I, e.J, e.K) - e.Val
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(test)))
}

// RankAll returns the POIs 0..dimJ-1 sorted by descending score for user i at
// time k, a helper for case studies.
func RankAll(s Scorer, i, k, dimJ int) []int {
	idx := make([]int, dimJ)
	for j := range idx {
		idx[j] = j
	}
	scores := make([]float64, dimJ)
	for j := range scores {
		scores[j] = s.Score(i, j, k)
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}
