package eval

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tcss/internal/tensor"
)

func TestRankExtendedPerfectScorer(t *testing.T) {
	truth := map[[3]int]bool{{0, 5, 0}: true, {1, 9, 1}: true}
	s := ScorerFunc(func(i, j, k int) float64 {
		if truth[[3]int{i, j, k}] {
			return 1
		}
		return 0
	})
	test := []tensor.Entry{{I: 0, J: 5, K: 0, Val: 1}, {I: 1, J: 9, K: 1, Val: 1}}
	res := RankExtended(s, test, 300, DefaultConfig())
	if res.HitAtK != 1 || res.MRR != 1 || math.Abs(res.NDCGAtK-1) > 1e-12 {
		t.Fatalf("perfect scorer extended = %+v", res)
	}
}

func TestRankExtendedNDCGRankTwo(t *testing.T) {
	// One candidate always beats the target: rank 2 → NDCG = 1/log2(3).
	s := ScorerFunc(func(i, j, k int) float64 {
		if j == 0 {
			return 2 // the always-better negative
		}
		if j == 5 {
			return 1 // the target
		}
		return 0
	})
	test := []tensor.Entry{{I: 0, J: 5, K: 0, Val: 1}}
	// Use a small POI pool so negative 0 is always drawn.
	res := RankExtended(s, test, 3, Config{Negatives: 100, TopK: 10, Seed: 1})
	want := 1 / math.Log2(3)
	if math.Abs(res.NDCGAtK-want) > 1e-12 {
		t.Fatalf("NDCG = %g, want %g", res.NDCGAtK, want)
	}
}

func TestRankExtendedEmpty(t *testing.T) {
	res := RankExtended(ScorerFunc(func(i, j, k int) float64 { return 0 }), nil, 5, DefaultConfig())
	if res != (Extended{}) {
		t.Fatalf("empty test must give zero extended metrics, got %+v", res)
	}
}

func TestRankExtendedConsistentWithRank(t *testing.T) {
	s := ScorerFunc(func(i, j, k int) float64 { return float64((i*13 + j*7 + k) % 31) })
	var test []tensor.Entry
	for n := 0; n < 25; n++ {
		test = append(test, tensor.Entry{I: n % 4, J: (n * 11) % 90, K: n % 3, Val: 1})
	}
	cfg := DefaultConfig()
	plain := Rank(s, test, 90, cfg)
	ext := RankExtended(s, test, 90, cfg)
	// MRR sums per-user means in map-iteration order, so the two paths may
	// differ in the last floating-point bits.
	if plain.HitAtK != ext.HitAtK || math.Abs(plain.MRR-ext.MRR) > 1e-12 {
		t.Fatalf("extended metrics must agree with Rank: %+v vs %+v", plain, ext)
	}
}

func TestTopNMetrics(t *testing.T) {
	// User 0 at time 0 has relevant POIs {1, 2}; the scorer ranks 1, 2, 0
	// on top. Top-2 precision = 1, recall = 1.
	s := ScorerFunc(func(i, j, k int) float64 {
		switch j {
		case 1:
			return 3
		case 2:
			return 2
		}
		return -float64(j)
	})
	test := []tensor.Entry{
		{I: 0, J: 1, K: 0, Val: 1},
		{I: 0, J: 2, K: 0, Val: 1},
	}
	p, r := TopNMetrics(s, test, 10, 2, nil)
	if p != 1 || r != 1 {
		t.Fatalf("P@2=%g R@2=%g, want 1, 1", p, r)
	}
	// Top-4: precision = 2/4, recall = 1.
	p, r = TopNMetrics(s, test, 10, 4, nil)
	if p != 0.5 || r != 1 {
		t.Fatalf("P@4=%g R@4=%g, want 0.5, 1", p, r)
	}
}

func TestTopNMetricsSkip(t *testing.T) {
	// Skipping the top-scored POI 1 promotes POI 2.
	s := ScorerFunc(func(i, j, k int) float64 { return -float64(j) })
	test := []tensor.Entry{{I: 0, J: 2, K: 0, Val: 1}}
	skip := func(user, poi int) bool { return poi == 0 || poi == 1 }
	p, r := TopNMetrics(s, test, 5, 1, skip)
	if p != 1 || r != 1 {
		t.Fatalf("skip-filtered P@1=%g R@1=%g, want 1, 1", p, r)
	}
}

func TestTopNMetricsEmpty(t *testing.T) {
	p, r := TopNMetrics(ScorerFunc(func(i, j, k int) float64 { return 0 }), nil, 5, 3, nil)
	if p != 0 || r != 0 {
		t.Fatal("empty test must give zeros")
	}
}

// Extended holds the full metric set of the extended evaluation: the paper's
// Hit@K and MRR plus NDCG@K and the top-N precision/recall commonly reported
// alongside them. It, RankExtended and TopNMetrics live in this test file:
// only tests measure with them, quantdrift_test.go's external package
// included.
type Extended struct {
	HitAtK       float64
	MRR          float64
	NDCGAtK      float64
	PrecisionAtN float64
	RecallAtN    float64
}

// RankExtended runs the sampled-negative protocol of Rank and additionally
// reports NDCG@K (with a single relevant item, NDCG@K = 1/log2(1+rank) when
// the target ranks within K, else 0, averaged over test entries).
func RankExtended(s Scorer, test []tensor.Entry, dimJ int, cfg Config) Extended {
	if len(test) == 0 {
		return Extended{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var hits int
	var ndcg float64
	userRR := make(map[int]*meanAcc)
	for _, e := range test {
		target := s.Score(e.I, e.J, e.K)
		rank := 1
		seen := make(map[int]bool, cfg.Negatives)
		drawn := 0
		for drawn < cfg.Negatives {
			j := rng.Intn(dimJ)
			if j == e.J || seen[j] {
				if len(seen) >= dimJ-1 {
					break
				}
				continue
			}
			seen[j] = true
			drawn++
			if s.Score(e.I, j, e.K) >= target {
				rank++
			}
		}
		if rank <= cfg.TopK {
			hits++
			ndcg += 1 / math.Log2(1+float64(rank))
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
	return Extended{
		HitAtK:  float64(hits) / float64(len(test)),
		MRR:     mrr.mean(),
		NDCGAtK: ndcg / float64(len(test)),
	}
}

// TopNMetrics computes precision@N and recall@N over full rankings: for each
// user with held-out interactions at a time unit, the top-N recommended POIs
// are compared against the user's held-out POIs at that time unit. skip
// optionally removes training POIs per user from the candidate ranking (the
// usual setting).
func TopNMetrics(s Scorer, test []tensor.Entry, dimJ, topN int, skip func(user, poi int) bool) (precision, recall float64) {
	if len(test) == 0 || topN <= 0 {
		return 0, 0
	}
	// Group held-out POIs per (user, time).
	type key struct{ i, k int }
	relevant := make(map[key]map[int]bool)
	for _, e := range test {
		kk := key{e.I, e.K}
		if relevant[kk] == nil {
			relevant[kk] = make(map[int]bool)
		}
		relevant[kk][e.J] = true
	}
	var pSum, rSum float64
	var n int
	for kk, rel := range relevant {
		ranked := rankAllFiltered(s, kk.i, kk.k, dimJ, skip)
		limit := topN
		if limit > len(ranked) {
			limit = len(ranked)
		}
		var hit int
		for _, j := range ranked[:limit] {
			if rel[j] {
				hit++
			}
		}
		pSum += float64(hit) / float64(topN)
		rSum += float64(hit) / float64(len(rel))
		n++
	}
	return pSum / float64(n), rSum / float64(n)
}

func rankAllFiltered(s Scorer, i, k, dimJ int, skip func(user, poi int) bool) []int {
	idx := make([]int, 0, dimJ)
	for j := 0; j < dimJ; j++ {
		if skip != nil && skip(i, j) {
			continue
		}
		idx = append(idx, j)
	}
	scores := make(map[int]float64, len(idx))
	for _, j := range idx {
		scores[j] = s.Score(i, j, k)
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}
