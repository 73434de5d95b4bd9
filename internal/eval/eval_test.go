package eval

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"tcss/internal/tensor"
)

// oracleScorer scores the true entry highest.
type oracleScorer struct{ truth map[[3]int]bool }

func (o oracleScorer) Score(i, j, k int) float64 {
	if o.truth[[3]int{i, j, k}] {
		return 1
	}
	return 0
}

func TestRankPerfectScorer(t *testing.T) {
	truth := map[[3]int]bool{}
	var test []tensor.Entry
	for n := 0; n < 20; n++ {
		e := tensor.Entry{I: n % 5, J: n * 3 % 200, K: n % 4, Val: 1}
		truth[[3]int{e.I, e.J, e.K}] = true
		test = append(test, e)
	}
	res := Rank(oracleScorer{truth}, test, 200, DefaultConfig())
	if res.HitAtK != 1 || math.Abs(res.MRR-1) > 1e-12 {
		t.Fatalf("perfect scorer must get Hit=1 MRR=1, got %+v", res)
	}
}

func TestRankConstantScorerGetsNoCredit(t *testing.T) {
	// Pessimistic tie-breaking: a constant scorer ranks last (101st).
	s := ScorerFunc(func(i, j, k int) float64 { return 0.5 })
	test := []tensor.Entry{{I: 0, J: 5, K: 0, Val: 1}}
	res := Rank(s, test, 500, DefaultConfig())
	if res.HitAtK != 0 {
		t.Fatalf("constant scorer Hit = %g, want 0", res.HitAtK)
	}
	if math.Abs(res.MRR-1.0/101) > 1e-12 {
		t.Fatalf("constant scorer MRR = %g, want 1/101", res.MRR)
	}
}

func TestRankWorstScorer(t *testing.T) {
	truth := map[[3]int]bool{{0, 5, 0}: true}
	s := ScorerFunc(func(i, j, k int) float64 {
		if truth[[3]int{i, j, k}] {
			return -1
		}
		return 1
	})
	res := Rank(s, []tensor.Entry{{I: 0, J: 5, K: 0, Val: 1}}, 500, DefaultConfig())
	if res.HitAtK != 0 || math.Abs(res.MRR-1.0/101) > 1e-12 {
		t.Fatalf("worst scorer got %+v", res)
	}
}

func TestRankDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := ScorerFunc(func(i, j, k int) float64 { return float64((i*31+j*17+k*7)%97) / 97 })
	var test []tensor.Entry
	for n := 0; n < 30; n++ {
		test = append(test, tensor.Entry{I: rng.Intn(6), J: rng.Intn(150), K: rng.Intn(3), Val: 1})
	}
	cfg := DefaultConfig()
	a := Rank(s, test, 150, cfg)
	b := Rank(s, test, 150, cfg)
	if a != b {
		t.Fatalf("same seed must give same result: %+v vs %+v", a, b)
	}
}

func TestRankBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Rank scores from several workers at once and a *rand.Rand is not
		// safe for that; the bounds hold whatever order the draws land in.
		var mu sync.Mutex
		s := ScorerFunc(func(i, j, k int) float64 {
			mu.Lock()
			defer mu.Unlock()
			return rng.Float64()
		})
		var test []tensor.Entry
		for n := 0; n < 10; n++ {
			test = append(test, tensor.Entry{I: rng.Intn(4), J: rng.Intn(120), K: rng.Intn(3), Val: 1})
		}
		res := Rank(s, test, 120, Config{Negatives: 100, TopK: 10, Seed: seed})
		return res.HitAtK >= 0 && res.HitAtK <= 1 && res.MRR >= 0 && res.MRR <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRankSmallPOIPool(t *testing.T) {
	// Fewer POIs than requested negatives must not loop forever.
	s := ScorerFunc(func(i, j, k int) float64 { return float64(j) })
	test := []tensor.Entry{{I: 0, J: 4, K: 0, Val: 1}}
	res := Rank(s, test, 5, DefaultConfig())
	// POI 4 scores highest of 0..4, so it must be a hit with rank 1.
	if res.HitAtK != 1 || res.MRR != 1 {
		t.Fatalf("small pool result %+v", res)
	}
}

func TestRankEmptyTest(t *testing.T) {
	res := Rank(ScorerFunc(func(i, j, k int) float64 { return 0 }), nil, 10, DefaultConfig())
	if res.HitAtK != 0 || res.MRR != 0 {
		t.Fatalf("empty test must give zeros, got %+v", res)
	}
}

func TestMRRPerUserAveraging(t *testing.T) {
	// User 0 has two entries (rank 1 and rank 101), user 1 has one (rank 1).
	// Per-user averaging: user0 = (1 + 1/101)/2, user1 = 1;
	// MRR = (user0 + user1)/2 — NOT the flat average over 3 entries.
	truth := map[[3]int]bool{{0, 0, 0}: true, {1, 1, 0}: true}
	s := ScorerFunc(func(i, j, k int) float64 {
		if truth[[3]int{i, j, k}] {
			return 2
		}
		return 1 // ties beat the remaining test entry (0, 2, 0)
	})
	test := []tensor.Entry{
		{I: 0, J: 0, K: 0, Val: 1},
		{I: 0, J: 2, K: 0, Val: 1},
		{I: 1, J: 1, K: 0, Val: 1},
	}
	res := Rank(s, test, 500, DefaultConfig())
	user0 := (1.0 + 1.0/101) / 2
	want := (user0 + 1.0) / 2
	if math.Abs(res.MRR-want) > 1e-12 {
		t.Fatalf("per-user MRR = %g, want %g", res.MRR, want)
	}
}

func TestRMSE(t *testing.T) {
	s := ScorerFunc(func(i, j, k int) float64 { return 0 })
	test := []tensor.Entry{{Val: 3}, {Val: 4}}
	want := math.Sqrt((9.0 + 16.0) / 2)
	if got := RMSE(s, test); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %g, want %g", got, want)
	}
	if RMSE(s, nil) != 0 {
		t.Fatal("empty RMSE must be 0")
	}
}

func TestRankAll(t *testing.T) {
	s := ScorerFunc(func(i, j, k int) float64 { return float64(-j) })
	got := RankAll(s, 0, 0, 4)
	for j, v := range []int{0, 1, 2, 3} {
		if got[j] != v {
			t.Fatalf("RankAll = %v", got)
		}
	}
}

// ScorerFunc adapts a plain function to the Scorer interface.
type ScorerFunc func(i, j, k int) float64

// Score implements Scorer.
func (f ScorerFunc) Score(i, j, k int) float64 { return f(i, j, k) }

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
