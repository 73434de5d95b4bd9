package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// storageTestModel builds a small trained-looking f64 model with deterministic
// pseudo-random factors in roughly the magnitude range real training produces.
func storageTestModel(t *testing.T, i, j, k, rank int, seed int64) *Model {
	t.Helper()
	m := NewModel(i, j, k, rank)
	rng := rand.New(rand.NewSource(seed))
	fill := func(d []float64) {
		for n := range d {
			d[n] = rng.NormFloat64() * 0.3
		}
	}
	fill(m.U1.Data)
	fill(m.U2.Data)
	fill(m.U3.Data)
	fill(m.H)
	return m
}

func TestParseStorageMode(t *testing.T) {
	cases := []struct {
		in   string
		want StorageMode
		err  bool
	}{
		{"f64", StorageFloat64, false},
		{"float64", StorageFloat64, false},
		{"", StorageFloat64, false},
		{"F32", StorageFloat32, false},
		{"float32", StorageFloat32, false},
		{"int8", StorageInt8, false},
		{"i8", StorageInt8, false},
		{"fp16", 0, true},
		{"quantized", 0, true},
	}
	for _, c := range cases {
		got, err := ParseStorageMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseStorageMode(%q): err = %v, want err = %v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseStorageMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
		back, err := ParseStorageMode(mode.String())
		if err != nil || back != mode {
			t.Errorf("round trip %v: got %v, err %v", mode, back, err)
		}
	}
}

func TestConfigValidateStorage(t *testing.T) {
	cfg := DefaultConfig()
	for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
		cfg.Storage = mode
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate with storage %v: %v", mode, err)
		}
	}
	for _, bad := range []StorageMode{-1, 3, 99} {
		cfg.Storage = bad
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted storage mode %d", int(bad))
		}
	}
}

func TestToStorageRoundTrip(t *testing.T) {
	m := storageTestModel(t, 23, 31, 7, 10, 1)

	// Same-mode conversion is the identity.
	same, err := m.ToStorage(StorageFloat64)
	if err != nil || same != m {
		t.Fatalf("f64 -> f64: got %p err %v, want identity", same, err)
	}

	for _, mode := range []StorageMode{StorageFloat32, StorageInt8} {
		cm, err := m.ToStorage(mode)
		if err != nil {
			t.Fatalf("ToStorage(%v): %v", mode, err)
		}
		if cm.Mode != mode || cm.Compact == nil || cm.U1 != nil || cm.U2 != nil || cm.U3 != nil {
			t.Fatalf("ToStorage(%v): mode %v, compact %v, matrices (%v,%v,%v)",
				mode, cm.Mode, cm.Compact != nil, cm.U1, cm.U2, cm.U3)
		}
		// Decompress must reproduce exactly what the compact kernels compute
		// with, so Predict on the decompressed model equals Predict on the
		// compact model bit for bit.
		dm := cm.Decompress()
		if dm.Mode != StorageFloat64 {
			t.Fatalf("Decompress mode = %v", dm.Mode)
		}
		for i := 0; i < m.I; i += 5 {
			for j := 0; j < m.J; j += 7 {
				for k := 0; k < m.K; k += 3 {
					if got, want := cm.Predict(i, j, k), dm.Predict(i, j, k); got != want {
						t.Fatalf("%v Predict(%d,%d,%d) = %g, decompressed %g", mode, i, j, k, got, want)
					}
				}
			}
		}
	}

	// Invalid mode rejected.
	if _, err := m.ToStorage(StorageMode(42)); err == nil {
		t.Fatal("ToStorage(42) accepted")
	}
}

// TestFloat32DriftBound: f32 storage perturbs each factor entry by at most one
// float32 ulp, so scores must track float64 scores within a tight relative
// bound.
func TestFloat32DriftBound(t *testing.T) {
	m := storageTestModel(t, 23, 31, 7, 10, 2)
	cm, err := m.ToStorage(StorageFloat32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.I; i++ {
		for j := 0; j < m.J; j++ {
			for k := 0; k < m.K; k++ {
				want := m.Predict(i, j, k)
				got := cm.Predict(i, j, k)
				if d := math.Abs(got - want); d > 1e-5*(1+math.Abs(want)) {
					t.Fatalf("f32 Predict(%d,%d,%d) = %g, f64 %g (|Δ| = %g)", i, j, k, got, want, d)
				}
			}
		}
	}
}

// TestInt8QuantizationError: symmetric per-row max-abs quantization bounds the
// per-entry error by scale/2 = maxabs/254, which propagates to a per-score
// bound of rank · maxprod terms; check against a generous absolute bound.
func TestInt8QuantizationError(t *testing.T) {
	m := storageTestModel(t, 23, 31, 7, 10, 3)
	cm, err := m.ToStorage(StorageInt8)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := 0; i < m.I; i++ {
		for j := 0; j < m.J; j++ {
			for k := 0; k < m.K; k++ {
				if d := math.Abs(cm.Predict(i, j, k) - m.Predict(i, j, k)); d > worst {
					worst = d
				}
			}
		}
	}
	// Entries are ~N(0, 0.3); rows have maxabs around 1, so per-entry error
	// is ~1/254 ≈ 0.004 and per-score error stays well under 0.05 at rank 10
	// with three quantized operands. The bound is loose on purpose: it
	// catches scale/sign bugs, not statistical noise.
	if worst > 0.05 {
		t.Fatalf("int8 worst absolute score error %g, want < 0.05", worst)
	}
}

// TestCompactTopNMatchesBruteForce: for each storage mode, TopNScratch must
// return exactly the top-8 of a brute-force ranking computed with the same
// per-mode candidate kernel (ScoreCandidates builds w and scores candidates
// with the identical floating-point expressions, so the comparison is exact).
// For float32 the widened dot also matches the decompressed-f64 model bit for
// bit; int8 factors the row scale out of the dot, so it only matches its own
// kernel exactly and the decompressed model approximately.
func TestCompactTopNMatchesBruteForce(t *testing.T) {
	m := storageTestModel(t, 23, 31, 7, 10, 4)
	skip := []int{2, 9, 17}
	for _, mode := range []StorageMode{StorageFloat32, StorageInt8} {
		cm, err := m.ToStorage(mode)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewRecScratch(cm)
		allJ := make([]int, m.J)
		for j := range allJ {
			allJ[j] = j
		}
		scores := make([]float64, m.J)
		skipSet := map[int]bool{}
		for _, j := range skip {
			skipSet[j] = true
		}
		for i := 0; i < m.I; i += 3 {
			for k := 0; k < m.K; k++ {
				got := cm.TopNScratch(i, k, 8, skip, sc)
				cm.ScoreCandidates(i, k, allJ, scores)
				var want []Recommendation
				for j, s := range scores {
					if !skipSet[j] {
						want = append(want, Recommendation{POI: j, Score: s})
					}
				}
				sortRecs(want)
				want = want[:8]
				if len(got) != len(want) {
					t.Fatalf("%v user %d t %d: %d results, want %d", mode, i, k, len(got), len(want))
				}
				for p := range want {
					if got[p].POI != want[p].POI || got[p].Score != want[p].Score {
						t.Fatalf("%v user %d t %d rank %d: got %+v, brute force %+v",
							mode, i, k, p, got[p], want[p])
					}
				}
			}
		}
	}

	// Float32 additionally matches the decompressed model exactly.
	cm, _ := m.ToStorage(StorageFloat32)
	dm := cm.Decompress()
	sc, sd := NewRecScratch(cm), NewRecScratch(dm)
	for i := 0; i < m.I; i += 3 {
		got := cm.TopNScratch(i, 1, 8, skip, sc)
		want := dm.TopNScratch(i, 1, 8, skip, sd)
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("f32 user %d rank %d: got %+v, decompressed %+v", i, p, got[p], want[p])
			}
		}
	}
}

// sortRecs orders recommendations by score descending, POI ascending — the
// documented ranking order.
func sortRecs(rs []Recommendation) {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Score != rs[b].Score {
			return rs[a].Score > rs[b].Score
		}
		return rs[a].POI < rs[b].POI
	})
}

func TestCompactScoreCandidatesAndSlab(t *testing.T) {
	m := storageTestModel(t, 11, 19, 5, 10, 5)
	js := []int{0, 3, 7, 11, 18}
	for _, mode := range []StorageMode{StorageFloat32, StorageInt8} {
		cm, err := m.ToStorage(mode)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(js))
		for i := 0; i < m.I; i += 2 {
			for k := 0; k < m.K; k++ {
				cm.ScoreCandidates(i, k, js, out)
				for n, j := range js {
					// Same widened factors, same kernel summation order.
					if want := cm.Score(i, j, k); math.Abs(out[n]-want) > 1e-12 {
						t.Fatalf("%v ScoreCandidates(%d,%d) poi %d = %g, Score %g", mode, i, k, j, out[n], want)
					}
				}
			}
		}
		slab := make([]float64, m.J*m.K)
		cm.ScoreSlab(3, slab)
		for j := 0; j < m.J; j++ {
			for k := 0; k < m.K; k++ {
				if want := cm.Predict(3, j, k); math.Abs(slab[j*m.K+k]-want) > 1e-12 {
					t.Fatalf("%v ScoreSlab[%d,%d] = %g, Predict %g", mode, j, k, slab[j*m.K+k], want)
				}
			}
		}
	}
}

func TestCompactCloneIsDeep(t *testing.T) {
	m := storageTestModel(t, 9, 13, 4, 6, 6)
	for _, mode := range []StorageMode{StorageFloat32, StorageInt8} {
		cm, err := m.ToStorage(mode)
		if err != nil {
			t.Fatal(err)
		}
		cl := cm.Clone()
		if cl.Mode != mode {
			t.Fatalf("clone mode %v, want %v", cl.Mode, mode)
		}
		before := cm.Predict(1, 2, 3)
		switch mode {
		case StorageFloat32:
			cl.Compact[axPOI].f32[0] += 10
		case StorageInt8:
			cl.Compact[axPOI].scale[2] += 10
		}
		cl.H[0] += 10
		if got := cm.Predict(1, 2, 3); got != before {
			t.Fatalf("%v: mutating clone changed original (%g -> %g)", mode, before, got)
		}
	}
}

func TestFactorBytesRatios(t *testing.T) {
	m := storageTestModel(t, 64, 128, 16, 12, 7)
	f64b := m.FactorBytes()
	f32m, _ := m.ToStorage(StorageFloat32)
	i8m, _ := m.ToStorage(StorageInt8)
	if r := float64(f64b) / float64(f32m.FactorBytes()); r < 1.9 {
		t.Fatalf("f32 compression ratio %.2f, want >= 1.9 (f64 %d bytes, f32 %d)", r, f64b, f32m.FactorBytes())
	}
	if r := float64(f64b) / float64(i8m.FactorBytes()); r < 4 {
		t.Fatalf("int8 compression ratio %.2f, want >= 4 (f64 %d bytes, int8 %d)", r, f64b, i8m.FactorBytes())
	}
}

func TestCompactUpdateOnlineRejected(t *testing.T) {
	m := storageTestModel(t, 9, 13, 4, 6, 8)
	cm, err := m.ToStorage(StorageInt8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.UpdateOnline(nil, nil, nil, DefaultOnlineConfig()); err == nil {
		t.Fatal("UpdateOnline accepted a compact model")
	}
}

func TestTrainCompactStorage(t *testing.T) {
	fx := newTrainFixture(9)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	cfg.Rank = 3
	cfg.Seed = 1
	cfg.Storage = StorageFloat32
	m, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode != StorageFloat32 || m.Compact == nil {
		t.Fatalf("Train with Storage=f32 returned mode %v (compact %v)", m.Mode, m.Compact != nil)
	}
	// The compact model must match training in float64 followed by one
	// conversion: re-run with f64 storage and convert.
	cfg.Storage = StorageFloat64
	base, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.ToStorage(StorageFloat32)
	if err != nil {
		t.Fatal(err)
	}
	for n, v := range want.Compact[axUser].f32 {
		if got := m.Compact[axUser].f32[n]; got != v {
			t.Fatalf("U1f[%d] = %g, want %g: compaction changed training", n, got, v)
		}
	}
}
