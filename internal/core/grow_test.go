package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tcss/internal/tensor"
)

func TestModelGrowPreservesExistingRows(t *testing.T) {
	m := NewModel(4, 3, 2, 2)
	rng := rand.New(rand.NewSource(1))
	if err := m.Initialize(RandomInit, nil, rng); err != nil {
		t.Fatal(err)
	}
	oldU1 := m.U1.Clone()
	oldU2 := m.U2.Clone()
	if err := m.Grow(6, 5, &GrowthHints{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if m.I != 6 || m.J != 5 || m.K != 2 {
		t.Fatalf("dims = %dx%dx%d", m.I, m.J, m.K)
	}
	for i := 0; i < 4; i++ {
		for r := 0; r < 2; r++ {
			if m.U1.At(i, r) != oldU1.At(i, r) {
				t.Fatalf("U1[%d,%d] changed", i, r)
			}
		}
	}
	for j := 0; j < 3; j++ {
		for r := 0; r < 2; r++ {
			if m.U2.At(j, r) != oldU2.At(j, r) {
				t.Fatalf("U2[%d,%d] changed", j, r)
			}
		}
	}
	// New rows must be initialized (non-zero) and deterministic under seed.
	for i := 4; i < 6; i++ {
		var s float64
		for r := 0; r < 2; r++ {
			s += math.Abs(m.U1.At(i, r))
		}
		if s == 0 {
			t.Fatalf("grown U1 row %d is zero", i)
		}
	}
	m2 := NewModel(4, 3, 2, 2)
	if err := m2.Initialize(RandomInit, nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if err := m2.Grow(6, 5, &GrowthHints{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6*2; i++ {
		if m.U1.Data[i] != m2.U1.Data[i] || i < 5*2 && m.U2.Data[i] != m2.U2.Data[i] {
			t.Fatal("Grow is not deterministic under seed")
		}
	}
}

func TestModelGrowWarmStartsFromFriends(t *testing.T) {
	m := NewModel(3, 2, 1, 2)
	// Users 0 and 1 have distinctive rows; user 2 is far away.
	m.U1.Set(0, 0, 1)
	m.U1.Set(0, 1, 3)
	m.U1.Set(1, 0, 3)
	m.U1.Set(1, 1, 1)
	m.U1.Set(2, 0, 40)
	m.U1.Set(2, 1, 40)
	if err := m.Grow(4, 2, &GrowthHints{Friends: map[int][]int{3: {0, 1}}, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	// Row 3 must start near the friend mean (2, 2), not the column mean
	// (~14.7): noise is bounded by a few initTargetRMS.
	tol := 5 * initTargetRMS(2)
	for r := 0; r < 2; r++ {
		if d := m.U1.At(3, r) - 2; d < 0 || d > tol {
			t.Errorf("warm row component %d = %g, want 2..%g", r, m.U1.At(3, r), 2+tol)
		}
	}
}

func TestModelGrowCompactRejected(t *testing.T) {
	m := NewModel(3, 3, 2, 2)
	if err := m.Initialize(RandomInit, nil, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	c, err := m.ToStorage(StorageFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Grow(4, 4, nil); !errors.Is(err, ErrCompactModel) {
		t.Fatalf("Grow on f32 model: err = %v, want ErrCompactModel", err)
	}
}

func TestUpdateOnlineGrows(t *testing.T) {
	fx := newTrainFixture(40)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	cfg.Rank = 3
	m, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldI, oldJ := m.I, m.J
	nnz := fx.x.NNZ()
	entries := []tensor.Entry{
		{I: oldI + 1, J: oldJ, K: 0, Val: 1},
		{I: 0, J: oldJ, K: 1, Val: 1},
	}
	// UpdateOnline never grows: entries beyond the model fail with the typed
	// sentinel and leave model and tensor alone. Growth is the observe
	// transaction's step (TestObserveOpenGrowsEverythingTogether in tcss).
	if _, err := m.UpdateOnline(fx.x, entries, DefaultOnlineConfig()); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if m.I != oldI || m.J != oldJ || fx.x.DimI != oldI || fx.x.DimJ != oldJ || fx.x.NNZ() != nnz {
		t.Fatal("a rejected update changed the model or tensor")
	}
}

func TestUpdateOnlineHonorsEntryWeight(t *testing.T) {
	fx := newTrainFixture(41)
	m := NewModel(fx.x.DimI, fx.x.DimJ, fx.x.DimK, 2)
	if err := m.Initialize(RandomInit, nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	// Find an unobserved cell.
	var e tensor.Entry
	found := false
	for i := 0; i < fx.x.DimI && !found; i++ {
		for j := 0; j < fx.x.DimJ && !found; j++ {
			if !fx.x.Has(i, j, 0) {
				e = tensor.Entry{I: i, J: j, K: 0, Val: 0.25}
				found = true
			}
		}
	}
	if !found {
		t.Skip("fixture tensor is dense")
	}
	ocfg := DefaultOnlineConfig()
	ocfg.Epochs = 1
	if _, err := m.UpdateOnline(fx.x, []tensor.Entry{e}, ocfg); err != nil {
		t.Fatal(err)
	}
	if got := fx.x.At(e.I, e.J, e.K); got != 0.25 {
		t.Fatalf("stored weight = %g, want the caller's 0.25 (regression: silent Val coercion)", got)
	}
	// Non-positive weights are rejected with a clear error, not coerced.
	bad := tensor.Entry{I: e.I, J: e.J, K: 1, Val: 0}
	if _, err := m.UpdateOnline(fx.x, []tensor.Entry{bad}, ocfg); err == nil {
		t.Fatal("zero-weight entry must be rejected")
	}
}

func TestUpdateOnlineDecay(t *testing.T) {
	fx := newTrainFixture(42)
	m := NewModel(fx.x.DimI, fx.x.DimJ, fx.x.DimK, 2)
	if err := m.Initialize(RandomInit, nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	var old tensor.Entry
	for _, e := range fx.x.Entries() {
		old = e
		break
	}
	var e tensor.Entry
	for i := 0; i < fx.x.DimI; i++ {
		if !fx.x.Has(i, 0, 0) && (i != old.I || old.J != 0 || old.K != 0) {
			e = tensor.Entry{I: i, J: 0, K: 0, Val: 1}
			break
		}
	}
	ocfg := DefaultOnlineConfig()
	ocfg.Epochs = 1
	ocfg.DecayHalfLife = 2
	if _, err := m.UpdateOnline(fx.x, []tensor.Entry{e}, ocfg); err != nil {
		t.Fatal(err)
	}
	factor := math.Exp2(-1.0 / 2)
	if got := fx.x.At(old.I, old.J, old.K); math.Abs(got-old.Val*factor) > 1e-12 {
		t.Fatalf("old entry weight = %g, want %g (one half-life step)", got, old.Val*factor)
	}
	if got := fx.x.At(e.I, e.J, e.K); got != 1 {
		t.Fatalf("fresh entry weight = %g, want 1 (decay must not touch the incoming batch)", got)
	}
	// Re-observing the decayed cell refreshes it to full weight.
	refresh := tensor.Entry{I: old.I, J: old.J, K: old.K, Val: 1}
	if _, err := m.UpdateOnline(fx.x, []tensor.Entry{refresh}, ocfg); err != nil {
		t.Fatal(err)
	}
	if got := fx.x.At(old.I, old.J, old.K); got != 1 {
		t.Fatalf("re-observed weight = %g, want refreshed to 1", got)
	}
}
