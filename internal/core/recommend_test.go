package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tcss/internal/mat"
)

// randomRecModel builds a model with random factors for ranking tests.
func randomRecModel(i, j, k, rank int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(i, j, k, rank)
	for t := range m.U1.Data {
		m.U1.Data[t] = rng.NormFloat64()
	}
	for t := range m.U2.Data {
		m.U2.Data[t] = rng.NormFloat64()
	}
	for t := range m.U3.Data {
		m.U3.Data[t] = rng.NormFloat64()
	}
	for t := range m.H {
		m.H[t] = rng.NormFloat64()
	}
	return m
}

// referenceTopN ranks every candidate with the same factored kernel as
// TopNScratch and a full sort — the O(J log J) specification the bounded heap
// must reproduce exactly, ties included.
func referenceTopN(m *Model, i, k, n int, skip map[int]bool) []Recommendation {
	w := make([]float64, m.Rank)
	u1, u3 := m.U1.Row(i), m.U3.Row(k)
	for t := range w {
		w[t] = m.H[t] * u1[t] * u3[t]
	}
	recs := make([]Recommendation, 0, m.J)
	for j := 0; j < m.J; j++ {
		if skip[j] {
			continue
		}
		if m.ZeroOutFilter != nil && !m.ZeroOutFilter[i][j] {
			continue
		}
		recs = append(recs, Recommendation{POI: j, Score: mat.DotUnrolled(w, m.U2.Row(j))})
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Score != recs[b].Score {
			return recs[a].Score > recs[b].Score
		}
		return recs[a].POI < recs[b].POI
	})
	if n < len(recs) {
		recs = recs[:n]
	}
	return recs
}

func TestTopNScratchMatchesReference(t *testing.T) {
	m := randomRecModel(6, 57, 4, 7, 1)
	scratch := NewRecScratch(m)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		i, k := rng.Intn(m.I), rng.Intn(m.K)
		n := 1 + rng.Intn(m.J+5)
		skip := map[int]bool{}
		var skipList []int
		for j := 0; j < m.J; j++ {
			if rng.Float64() < 0.2 {
				skip[j] = true
				skipList = append(skipList, j)
			}
		}
		got := m.TopNScratch(i, k, n, skipList, scratch)
		want := referenceTopN(m, i, k, n, skip)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d recs, want %d", trial, len(got), len(want))
		}
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("trial %d rank %d: got %+v, want %+v", trial, r, got[r], want[r])
			}
		}
	}
}

func TestTopNScratchTies(t *testing.T) {
	// All candidates score identically: the tie-break must hand back the
	// lowest POI ids in ascending order, as the full sort does.
	m := NewModel(1, 9, 1, 1)
	for j := 0; j < m.J; j++ {
		m.U2.Set(j, 0, 1)
	}
	m.U1.Set(0, 0, 1)
	m.U3.Set(0, 0, 1)
	m.H[0] = 1
	got := m.TopNScratch(0, 0, 4, nil, NewRecScratch(m))
	if len(got) != 4 {
		t.Fatalf("got %d recs", len(got))
	}
	for r, rec := range got {
		if rec.POI != r {
			t.Fatalf("tie-break order %+v, want POIs 0,1,2,3", got)
		}
	}
}

func TestTopNScratchZeroOutAndEdgeCases(t *testing.T) {
	m := randomRecModel(2, 12, 2, 3, 3)
	m.ZeroOutFilter = make([][]bool, m.I)
	for i := range m.ZeroOutFilter {
		m.ZeroOutFilter[i] = make([]bool, m.J)
		for j := 0; j < m.J; j += 2 {
			m.ZeroOutFilter[i][j] = true // only even POIs allowed
		}
	}
	s := NewRecScratch(m)
	got := m.TopNScratch(0, 0, m.J, nil, s)
	if len(got) != m.J/2 {
		t.Fatalf("filter kept %d POIs, want %d", len(got), m.J/2)
	}
	for _, rec := range got {
		if rec.POI%2 != 0 {
			t.Fatalf("zero-out filter leaked POI %d", rec.POI)
		}
	}
	if recs := m.TopNScratch(0, 0, 0, nil, s); len(recs) != 0 {
		t.Fatalf("n=0 returned %d recs", len(recs))
	}
	// Out-of-range skip entries are ignored rather than panicking.
	if recs := m.TopNScratch(0, 0, 3, []int{-5, 9999}, s); len(recs) != 3 {
		t.Fatalf("out-of-range skip gave %d recs", len(recs))
	}
	// Skipping everything yields an empty result.
	all := make([]int, m.J)
	for j := range all {
		all[j] = j
	}
	if recs := m.TopNScratch(0, 0, 3, all, s); len(recs) != 0 {
		t.Fatalf("skip-all gave %d recs", len(recs))
	}
}

func TestTopNScratchReuseAcrossCalls(t *testing.T) {
	// The same scratch must give identical answers call after call (skip
	// cursor and heap reset), including when the skip set changes between
	// calls.
	m := randomRecModel(3, 30, 3, 5, 4)
	s := NewRecScratch(m)
	first := m.TopNScratch(1, 2, 8, []int{0, 1, 2}, s)
	for trial := 0; trial < 100; trial++ {
		m.TopNScratch(trial%m.I, trial%m.K, 5, []int{trial % m.J}, s)
	}
	again := m.TopNScratch(1, 2, 8, []int{0, 1, 2}, s)
	if len(first) != len(again) {
		t.Fatalf("reuse changed result length %d -> %d", len(first), len(again))
	}
	for r := range first {
		if first[r] != again[r] {
			t.Fatalf("reuse changed rank %d: %+v -> %+v", r, first[r], again[r])
		}
	}
}

func TestTopNScratchAllocs(t *testing.T) {
	m := randomRecModel(4, 100, 4, 8, 5)
	s := NewRecScratch(m)
	skip := []int{3, 17, 42}
	m.TopNScratch(0, 0, 10, skip, s) // warm buffer growth
	allocs := testing.AllocsPerRun(100, func() {
		m.TopNScratch(1, 1, 10, skip, s)
	})
	// Only the returned slice may allocate.
	if allocs > 1 {
		t.Fatalf("TopNScratch allocates %v objects/op, want <= 1", allocs)
	}
}

func TestTopNScoresMatchPredict(t *testing.T) {
	// The factored kernel regroups multiplications, so scores agree with
	// Predict to rounding error, not bit-for-bit.
	m := randomRecModel(3, 20, 3, 6, 6)
	for _, rec := range m.TopN(1, 1, 20, nil) {
		want := m.Predict(1, rec.POI, 1)
		if diff := math.Abs(rec.Score - want); diff > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("POI %d score %g vs Predict %g (diff %g)", rec.POI, rec.Score, want, diff)
		}
	}
}

// BenchmarkTopNAlloc is the pre-scratch path: a fresh scratch (and skip map
// conversion) per call, as Model.TopN does.
func BenchmarkTopNAlloc(b *testing.B) {
	m := randomRecModel(64, 800, 12, 10, 7)
	skip := map[int]bool{}
	for j := 0; j < 20; j++ {
		skip[j*7%m.J] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TopN(i%m.I, i%m.K, 10, skip)
	}
}

// scanBenchModels is the catalogue of the j128k scan benchmarks: the bench
// module's node-scan shape (J = 131 072, rank 10, synthetic fill, no side
// information) in each storage mode.
func scanBenchModels(b *testing.B) map[StorageMode]*Model {
	b.Helper()
	base := randomRecModel(2048, 131072, 12, 10, 8)
	models := map[StorageMode]*Model{StorageFloat64: base}
	for _, mode := range []StorageMode{StorageFloat32, StorageInt8} {
		m, err := base.ToStorage(mode)
		if err != nil {
			b.Fatal(err)
		}
		models[mode] = m
	}
	return models
}

var scanBenchModes = []StorageMode{StorageFloat64, StorageFloat32, StorageInt8}

// BenchmarkTopNScratch is the serving path: reused buffers, slice skip set.
// j800 is the trained-preset scale; the j128k runs are the uncached recommend
// the bench module's node-scan workload and core.topn_ms.j128k* probes time.
func BenchmarkTopNScratch(b *testing.B) {
	b.Run("j800", func(b *testing.B) {
		m := randomRecModel(64, 800, 12, 10, 7)
		var skip []int
		for j := 0; j < 20; j++ {
			skip = append(skip, j*7%m.J)
		}
		s := NewRecScratch(m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.TopNScratch(i%m.I, i%m.K, 10, skip, s)
		}
	})
	models := scanBenchModels(b)
	for _, mode := range scanBenchModes {
		m := models[mode]
		b.Run("j128k/"+mode.String(), func(b *testing.B) {
			s := NewRecScratch(m)
			m.TopNScratch(0, 0, 10, nil, s) // fault the slab in
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TopNScratch(i*7%m.I, i%m.K, 10, nil, s)
			}
		})
	}
}
