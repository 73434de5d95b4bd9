package tcss

import (
	"errors"
	"math"
	"testing"

	"tcss/internal/core"
	"tcss/internal/graph"
	"tcss/internal/lbsn"
)

// smallDataset builds a quick dataset for API tests.
func smallDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	cfg, err := lbsn.NewPreset("gmu-5k", seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Users, cfg.POIs, cfg.CheckInsPerUser = 48, 40, 20
	ds, err := lbsn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 30
	cfg.Rank = 5
	cfg.Seed = 3
	return cfg
}

func TestFitEvaluateRecommend(t *testing.T) {
	ds := smallDataset(t, 1)
	rec, err := Fit(ds, Month, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := rec.Evaluate()
	if res.HitAtK < 0 || res.HitAtK > 1 || math.IsNaN(res.MRR) {
		t.Fatalf("bad evaluation result %+v", res)
	}
	recs := rec.Recommend(0, 5, 5)
	if len(recs) == 0 || len(recs) > 5 {
		t.Fatalf("Recommend returned %d items", len(recs))
	}
	// Already-visited POIs must be excluded.
	visited := map[int]bool{}
	for _, j := range rec.Side.OwnPOIs[0] {
		visited[j] = true
	}
	for _, r := range recs {
		if visited[r.POI] {
			t.Fatalf("recommended already-visited POI %d", r.POI)
		}
	}
	// Scores sorted descending.
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("recommendations not sorted by score")
		}
	}
}

func TestFitRejectsInvalidDataset(t *testing.T) {
	ds := smallDataset(t, 2)
	ds.CheckIns[0].POI = 9999
	if _, err := Fit(ds, Month, quickConfig()); err == nil {
		t.Fatal("invalid dataset must be rejected")
	}
}

func TestFitSplitFractions(t *testing.T) {
	ds := smallDataset(t, 3)
	rec, err := FitSplit(ds, Month, quickConfig(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	total := rec.Train.NNZ() + len(rec.Test)
	if rec.Train.NNZ() != total/2 && rec.Train.NNZ() != (total+1)/2 {
		t.Fatalf("50%% split gave %d train of %d", rec.Train.NNZ(), total)
	}
}

func TestGenerateSaveLoadDataset(t *testing.T) {
	ds := GenerateDataset("gmu-5k", 4)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveDataset(ds, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(dir, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumUsers != ds.NumUsers || len(back.CheckIns) != len(ds.CheckIns) {
		t.Fatal("save/load round trip lost data")
	}
}

func TestVariantsThroughPublicAPI(t *testing.T) {
	ds := smallDataset(t, 5)
	for _, variant := range []HausdorffVariant{SocialHausdorff, SelfHausdorff, NoHausdorff, ZeroOut} {
		cfg := quickConfig()
		cfg.Epochs = 5
		cfg.Variant = variant
		if variant == NoHausdorff {
			cfg.Lambda = 0
		}
		if _, err := Fit(ds, Month, cfg); err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
	}
}

func TestGranularities(t *testing.T) {
	ds := smallDataset(t, 6)
	for _, gran := range []Granularity{Month, Week, Hour} {
		cfg := quickConfig()
		cfg.Epochs = 3
		rec, err := Fit(ds, gran, cfg)
		if err != nil {
			t.Fatalf("%v: %v", gran, err)
		}
		if rec.Train.DimK != gran.Len() {
			t.Fatalf("%v: tensor K = %d", gran, rec.Train.DimK)
		}
	}
}

func TestPaperConfigValues(t *testing.T) {
	cfg := PaperConfig()
	if cfg.LR != 0.001 || cfg.WeightDecay != 0.1 || cfg.Lambda != 0.1 {
		t.Fatalf("PaperConfig = %+v", cfg)
	}
	def := DefaultConfig()
	if def.Rank != 10 || def.WPos != 0.99 || def.WNeg != 0.01 || def.Alpha != -1 {
		t.Fatalf("DefaultConfig core values differ from the paper: %+v", def)
	}
}

func TestExplainThroughPublicAPI(t *testing.T) {
	ds := smallDataset(t, 8)
	cfg := quickConfig()
	cfg.Epochs = 10
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := rec.Recommend(0, 3, 3)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	ex := rec.Explain(0, recs[0].POI, 3)
	if ex.User != 0 || ex.POI != recs[0].POI {
		t.Fatal("explanation identity wrong")
	}
	if math.Abs(ex.Score-recs[0].Score) > 1e-12 {
		t.Fatalf("explanation score %g != recommendation score %g", ex.Score, recs[0].Score)
	}
	if ex.VisitProbability < 0 || ex.VisitProbability > 1 {
		t.Fatalf("visit probability %g out of range", ex.VisitProbability)
	}
	if ex.String() == "" {
		t.Fatal("empty explanation string")
	}
}

func TestSaveLoadModelThroughPublicAPI(t *testing.T) {
	ds := smallDataset(t, 9)
	cfg := quickConfig()
	cfg.Epochs = 5
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := rec.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	m, _, err := OpenModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict(0, 1, 2) != rec.Model.Predict(0, 1, 2) {
		t.Fatal("loaded model differs")
	}
}

func TestObserveOnlineUpdate(t *testing.T) {
	ds := smallDataset(t, 10)
	cfg := quickConfig()
	cfg.Epochs = 20
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A brand-new check-in at an unobserved cell.
	var newCI lbsn.CheckIn
	found := false
	for u := 0; u < ds.NumUsers && !found; u++ {
		for j := 0; j < len(ds.POIs) && !found; j++ {
			for k := 0; k < 12 && !found; k++ {
				if !rec.Train.Has(u, j, k) && rec.Score(u, j, k) < 0.5 {
					newCI = lbsn.CheckIn{User: u, POI: j, Month: k, Week: k * 4, Hour: 10}
					found = true
				}
			}
		}
	}
	if !found {
		t.Skip("no unobserved low-scored cell")
	}
	before := rec.Score(newCI.User, newCI.POI, newCI.Month)
	ocfg := DefaultOnlineConfig()
	added, err := rec.Observe([]lbsn.CheckIn{newCI}, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	after := rec.Score(newCI.User, newCI.POI, newCI.Month)
	if after <= before {
		t.Fatalf("observed check-in score must rise (%g -> %g)", before, after)
	}
	if !rec.Train.Has(newCI.User, newCI.POI, newCI.Month) {
		t.Fatal("tensor must contain the new cell")
	}
}

func TestObserveTransactionalRollback(t *testing.T) {
	ds := smallDataset(t, 11)
	cfg := quickConfig()
	cfg.Epochs = 10
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find an unobserved cell so UpdateOnline itself succeeds.
	var newCI lbsn.CheckIn
	found := false
	for u := 0; u < ds.NumUsers && !found; u++ {
		for j := 0; j < len(ds.POIs) && !found; j++ {
			if !rec.Train.Has(u, j, 0) {
				newCI = lbsn.CheckIn{User: u, POI: j, Month: 0, Week: 0, Hour: 0}
				found = true
			}
		}
	}
	if !found {
		t.Skip("no unobserved cell")
	}
	// Sabotage the side-information rebuild: a social graph that no longer
	// covers the user dimension makes core.BuildSideInfo fail AFTER the
	// factor update has succeeded.
	goodSocial := rec.Dataset.Social
	rec.Dataset.Social = graph.New(1)
	modelBefore, trainBefore, sideBefore := rec.Model, rec.Train, rec.Side
	scoreBefore := rec.Score(newCI.User, newCI.POI, 0)
	checkInsBefore := len(rec.Dataset.CheckIns)

	added, err := rec.Observe([]lbsn.CheckIn{newCI}, DefaultOnlineConfig())
	if !errors.Is(err, ErrObserveReverted) {
		t.Fatalf("err = %v, want ErrObserveReverted", err)
	}
	if added != 0 {
		t.Fatalf("failed observe reported %d added cells", added)
	}
	if rec.Model != modelBefore || rec.Train != trainBefore || rec.Side != sideBefore {
		t.Fatal("failed observe must leave model, tensor and side info untouched")
	}
	if rec.Train.Has(newCI.User, newCI.POI, 0) {
		t.Fatal("failed observe leaked the new cell into the training tensor")
	}
	if got := rec.Score(newCI.User, newCI.POI, 0); got != scoreBefore {
		t.Fatalf("failed observe moved the score %g -> %g", scoreBefore, got)
	}
	if len(rec.Dataset.CheckIns) != checkInsBefore {
		t.Fatal("failed observe appended check-ins")
	}

	// With the graph restored the identical observe goes through, and the
	// commit swaps fresh objects rather than mutating the published ones.
	rec.Dataset.Social = goodSocial
	added, err = rec.Observe([]lbsn.CheckIn{newCI}, DefaultOnlineConfig())
	if err != nil || added != 1 {
		t.Fatalf("observe after restore = %d, %v", added, err)
	}
	if rec.Model == modelBefore || rec.Train == trainBefore {
		t.Fatal("successful observe must swap in fresh model and tensor objects")
	}
	if trainBefore.Has(newCI.User, newCI.POI, 0) {
		t.Fatal("pre-observe tensor snapshot was mutated in place")
	}
}

func TestAttachModelRoundTrip(t *testing.T) {
	ds := smallDataset(t, 12)
	cfg := quickConfig()
	cfg.Epochs = 5
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := rec.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	m, _, err := OpenModel(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := AttachModel(m, ds, Month, cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if back.Train.NNZ() != rec.Train.NNZ() || len(back.Test) != len(rec.Test) {
		t.Fatalf("attach reproduced split %d/%d, want %d/%d",
			back.Train.NNZ(), len(back.Test), rec.Train.NNZ(), len(rec.Test))
	}
	a, b := rec.Recommend(0, 3, 5), back.Recommend(0, 3, 5)
	if len(a) != len(b) {
		t.Fatalf("recommendation count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A model smaller than the dataset, or with a different time axis, must
	// be rejected.
	if m.I > 1 {
		small := core.NewModel(m.I-1, m.J, m.K, m.Rank)
		if _, err := AttachModel(small, ds, Month, cfg, 0.8); err == nil {
			t.Fatal("smaller model shape must be rejected")
		}
	}
	wrongK := core.NewModel(m.I, m.J, m.K+1, m.Rank)
	if _, err := AttachModel(wrongK, ds, Month, cfg, 0.8); err == nil {
		t.Fatal("mismatched time axis must be rejected")
	}
	// A LARGER model is the open-world growth case: the dataset is grown to
	// match and serving resumes with the extra rows intact.
	bigger := core.NewModel(m.I+2, m.J+1, m.K, m.Rank)
	grownRec, err := AttachModel(bigger, ds, Month, cfg, 0.8)
	if err != nil {
		t.Fatalf("grown model must attach: %v", err)
	}
	if grownRec.Dataset.NumUsers != m.I+2 || len(grownRec.Dataset.POIs) != m.J+1 {
		t.Fatalf("dataset not grown to model dims: %d users, %d POIs",
			grownRec.Dataset.NumUsers, len(grownRec.Dataset.POIs))
	}
	if got := len(grownRec.Side.OwnPOIs); got != m.I+2 {
		t.Fatalf("side info covers %d users, want %d", got, m.I+2)
	}
	_ = grownRec.Recommend(m.I+1, 3, 5) // grown row must be servable
}

func TestFriendPOIs(t *testing.T) {
	ds := smallDataset(t, 7)
	cfg := quickConfig()
	cfg.Epochs = 2
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < ds.NumUsers; u++ {
		for _, j := range rec.FriendPOIs(u) {
			if j < 0 || j >= len(ds.POIs) {
				t.Fatalf("friend POI %d out of range", j)
			}
		}
	}
}
