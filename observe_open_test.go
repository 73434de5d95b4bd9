package tcss

import (
	"errors"
	"slices"
	"testing"

	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
)

func TestObserveOpenGrowsEverythingTogether(t *testing.T) {
	ds := smallDataset(t, 21)
	cfg := quickConfig()
	cfg.Epochs = 5
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldI, oldJ := rec.Model.I, rec.Model.J
	oldModel, oldSide, oldTrain := rec.Model, rec.Side, rec.Train

	newUser := lbsn.NewUser{ID: oldI, Friends: []int{0, 1}}
	newPOI := lbsn.POI{ID: oldJ, Loc: geo.Point{Lat: 30.1, Lon: -97.1}, Category: lbsn.Food}
	batch := ObserveBatch{
		NewUsers: []lbsn.NewUser{newUser},
		NewPOIs:  []lbsn.POI{newPOI},
		CheckIns: []lbsn.CheckIn{
			{User: oldI, POI: 3, Month: 4, Week: 18, Hour: 12},
			{User: 2, POI: oldJ, Month: 4, Week: 18, Hour: 19},
		},
	}
	ocfg := DefaultOnlineConfig()
	ocfg.Epochs = 3
	ocfg.Seed = 5
	added, err := rec.ObserveOpen(batch, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("added = %d, want 2", added)
	}
	if rec.Model.I != oldI+1 || rec.Model.J != oldJ+1 {
		t.Fatalf("model dims = %dx%d, want %dx%d", rec.Model.I, rec.Model.J, oldI+1, oldJ+1)
	}
	if rec.Train.DimI != oldI+1 || rec.Train.DimJ != oldJ+1 {
		t.Fatalf("train dims = %dx%d", rec.Train.DimI, rec.Train.DimJ)
	}
	if len(rec.Side.OwnPOIs) != oldI+1 || len(rec.Side.EntropyW) != oldJ+1 || rec.Side.Dist.N != oldJ+1 {
		t.Fatal("side info did not grow with the model")
	}
	if rec.Dataset.NumUsers != oldI+1 || len(rec.Dataset.POIs) != oldJ+1 {
		t.Fatal("dataset did not grow with the model")
	}
	if !rec.Dataset.Social.HasEdge(oldI, 0) || !rec.Dataset.Social.HasEdge(oldI, 1) {
		t.Fatal("arrival's friendships not wired into the social graph")
	}
	if got := rec.Side.OwnPOIs[oldI]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("new user's own POIs = %v, want [3]", got)
	}

	// Transactional: published references stay valid and untouched.
	if oldModel.I != oldI || len(oldSide.OwnPOIs) != oldI || oldTrain.DimI != oldI {
		t.Fatal("previously published model/side/train were mutated")
	}

	// The grown row must be recommendable and exclude the visited POI.
	recs := rec.Recommend(oldI, 4, 5)
	if len(recs) == 0 {
		t.Fatal("no recommendations for grown user")
	}
	for _, rc := range recs {
		if rc.POI == 3 {
			t.Fatal("visited POI not excluded for grown user")
		}
	}

	// A second batch with a plain out-of-range check-in (no arrival
	// metadata) must also grow, via fallback init.
	added, err = rec.ObserveOpen(ObserveBatch{CheckIns: []lbsn.CheckIn{
		{User: oldI + 3, POI: 0, Month: 5, Week: 22, Hour: 9},
	}}, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || rec.Model.I != oldI+4 {
		t.Fatalf("gap growth: added=%d I=%d, want 1/%d", added, rec.Model.I, oldI+4)
	}
}

func TestObserveOpenCompactRejected(t *testing.T) {
	ds := smallDataset(t, 22)
	cfg := quickConfig()
	cfg.Epochs = 3
	cfg.Storage = StorageFloat32
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldI := rec.Model.I
	_, err = rec.ObserveOpen(ObserveBatch{CheckIns: []lbsn.CheckIn{
		{User: oldI, POI: 0, Month: 1, Week: 4, Hour: 8},
	}}, DefaultOnlineConfig())
	if !errors.Is(err, core.ErrCompactModel) {
		t.Fatalf("err = %v, want ErrCompactModel", err)
	}
	// In-range observes on compact models keep working transparently.
	if _, err := rec.ObserveOpen(ObserveBatch{CheckIns: []lbsn.CheckIn{
		{User: 0, POI: 1, Month: 1, Week: 4, Hour: 8},
	}}, DefaultOnlineConfig()); err != nil {
		t.Fatalf("in-range observe on compact model: %v", err)
	}
}

func TestObserveOpenDeterministic(t *testing.T) {
	run := func() *Model {
		ds := smallDataset(t, 23)
		cfg := quickConfig()
		cfg.Epochs = 3
		rec, err := Fit(ds, Month, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := ObserveBatch{
			NewUsers: []lbsn.NewUser{{ID: rec.Model.I, Friends: []int{2}}},
			CheckIns: []lbsn.CheckIn{{User: rec.Model.I, POI: 1, Month: 2, Week: 9, Hour: 11}},
		}
		ocfg := DefaultOnlineConfig()
		ocfg.Epochs = 2
		ocfg.Seed = 9
		if _, err := rec.ObserveOpen(batch, ocfg); err != nil {
			t.Fatal(err)
		}
		return rec.Model
	}
	a, b := run(), run()
	for i := range a.U1.Data {
		if a.U1.Data[i] != b.U1.Data[i] {
			t.Fatal("ObserveOpen is not bit-deterministic under identical seeds")
		}
	}
}

// TestObserveOpenGrowthWithDecayRefreshesSideInfo: under a decay half-life
// UpdateOnline drops decayed cells of arbitrary users and POIs, so a growth
// batch must leave the side information equal to a full rebuild from the
// decayed tensor — not just the batch's own rows refreshed.
func TestObserveOpenGrowthWithDecayRefreshesSideInfo(t *testing.T) {
	ds := smallDataset(t, 24)
	cfg := quickConfig()
	cfg.Epochs = 3
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := rec.Train.NNZ()
	ocfg := DefaultOnlineConfig()
	ocfg.Epochs = 2
	ocfg.DecayHalfLife = 0.2 // one step scales by 2^-5, under the 0.05 floor
	newUser := rec.Model.I
	if _, err := rec.ObserveOpen(ObserveBatch{
		NewUsers: []lbsn.NewUser{{ID: newUser, Friends: []int{0, 1}}},
		CheckIns: []lbsn.CheckIn{{User: newUser, POI: 3, Month: 4, Week: 18, Hour: 12}},
	}, ocfg); err != nil {
		t.Fatal(err)
	}
	if rec.Train.NNZ() >= before {
		t.Fatalf("decay dropped nothing (%d -> %d cells); the test needs forgotten check-ins", before, rec.Train.NNZ())
	}
	want, err := core.BuildSideInfo(rec.Dataset.Social, rec.Dataset.Distances(), rec.Train)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Side.EntropyW, want.EntropyW) {
		t.Fatal("entropy weights still count forgotten check-ins")
	}
	for i := range want.OwnPOIs {
		if !slices.Equal(rec.Side.OwnPOIs[i], want.OwnPOIs[i]) {
			t.Fatalf("user %d own POIs %v, rebuilt from the decayed tensor %v", i, rec.Side.OwnPOIs[i], want.OwnPOIs[i])
		}
		if !slices.Equal(rec.Side.FriendPOIs[i], want.FriendPOIs[i]) {
			t.Fatalf("user %d friend POIs %v, rebuilt from the decayed tensor %v", i, rec.Side.FriendPOIs[i], want.FriendPOIs[i])
		}
	}
}
