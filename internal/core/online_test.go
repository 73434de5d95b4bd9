package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"tcss/internal/tensor"
)

func TestUpdateOnlineRaisesNewEntryScores(t *testing.T) {
	fx := newTrainFixture(30)
	cfg := DefaultConfig()
	cfg.Epochs = 30
	cfg.Rank = 3
	m, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the two held-out entries the model scores lowest back as "new"
	// check-ins; those are the cells where the update must visibly act.
	newEntries := slices.Clone(fx.test)
	slices.SortStableFunc(newEntries, func(a, b tensor.Entry) int {
		return cmp.Compare(m.Predict(a.I, a.J, a.K), m.Predict(b.I, b.J, b.K))
	})
	newEntries = newEntries[:2]
	before := make([]float64, len(newEntries))
	for n, e := range newEntries {
		before[n] = m.Predict(e.I, e.J, e.K)
	}
	ocfg := DefaultOnlineConfig()
	ocfg.Seed = 1
	added, err := m.UpdateOnline(fx.x, newEntries, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("added = %d, want 2", added)
	}
	for n, e := range newEntries {
		after := m.Predict(e.I, e.J, e.K)
		// The squared loss pulls the prediction toward the target 1 — from
		// below or from above.
		if math.Abs(after-1) >= math.Abs(before[n]-1) {
			t.Fatalf("entry %d: score must approach 1 after online update (%g -> %g)", n, before[n], after)
		}
		if !fx.x.Has(e.I, e.J, e.K) {
			t.Fatal("new entry must be inserted into the tensor")
		}
	}
}

func TestUpdateOnlineIdempotentOnKnownEntries(t *testing.T) {
	fx := newTrainFixture(31)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	cfg.Rank = 3
	m, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	known := fx.x.Entries()[0]
	snapshot := m.Clone()
	added, err := m.UpdateOnline(fx.x, []tensor.Entry{known}, DefaultOnlineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("re-adding a known entry reported %d new cells", added)
	}
	if !equalf(m.U1, snapshot.U1, 0) {
		t.Fatal("no-op update must not change the model")
	}
}

func TestUpdateOnlineValidation(t *testing.T) {
	fx := newTrainFixture(32)
	m := NewModel(fx.x.DimI, fx.x.DimJ, fx.x.DimK, 2)
	bad := DefaultOnlineConfig()
	bad.Epochs = 0
	if _, err := m.UpdateOnline(fx.x, nil, bad); err == nil {
		t.Fatal("zero epochs must be rejected")
	}
	out := []tensor.Entry{{I: 999, J: 0, K: 0}}
	if _, err := m.UpdateOnline(fx.x, out, DefaultOnlineConfig()); err == nil {
		t.Fatal("out-of-range entry must be rejected")
	}
}

// TestUpdateOnlineWithoutSideInfo: the update reads no side information, so
// a model trained with the social head refines from the tensor alone.
func TestUpdateOnlineWithoutSideInfo(t *testing.T) {
	fx := newTrainFixture(33)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	cfg.Rank = 3
	m, err := Train(fx.x, fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fx.test) == 0 {
		t.Skip("no test entries")
	}
	if _, err := m.UpdateOnline(fx.x, fx.test[:1], DefaultOnlineConfig()); err != nil {
		t.Fatalf("update without side info: %v", err)
	}
}
