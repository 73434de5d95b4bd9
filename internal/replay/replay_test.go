package replay

import (
	"net/http/httptest"
	"testing"

	"tcss"
	"tcss/internal/check"
	"tcss/internal/lbsn"
	"tcss/internal/serve"
)

func driftConfig(seed int64) lbsn.DriftConfig {
	base, err := lbsn.NewPreset(lbsn.PresetGMU5K, seed)
	if err != nil {
		panic(err)
	}
	base.Users, base.POIs = 60, 50
	return lbsn.DriftConfig{
		Base:             base,
		Weeks:            6,
		StartWeek:        14,
		NewUsersPerWeek:  3,
		NewPOIsPerWeek:   2,
		CloseProbPerWeek: 0.01,
		Seed:             seed + 1,
	}
}

func fitBase(t *testing.T, base *lbsn.Dataset) *tcss.Recommender {
	t.Helper()
	cfg := tcss.DefaultConfig()
	cfg.Rank, cfg.Epochs, cfg.Seed = 5, 20, 3
	rec, err := tcss.Fit(base, tcss.Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func onlineConfig() tcss.OnlineConfig {
	o := tcss.DefaultOnlineConfig()
	o.Epochs = 3
	o.Seed = 11
	return o
}

// TestReplayLocalGolden pins the full 6-week drift trajectory — per-week
// dimensions and both evaluation splits — as a golden series. Any change to
// the drift generator, the growth path, the online update, or the replay
// protocol itself moves these numbers and must re-record deliberately
// (go test ./internal/replay -update).
func TestReplayLocalGolden(t *testing.T) {
	d, err := lbsn.GenerateDrift(driftConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	rec := fitBase(t, d.Base)
	target := &LocalTarget{Rec: rec, Online: onlineConfig()}

	out, err := Run(d, lbsn.Month, target, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Weeks) != 6 {
		t.Fatalf("trajectory has %d weeks, want 6", len(out.Weeks))
	}
	last := out.Weeks[len(out.Weeks)-1]
	if last.Users <= d.Base.NumUsers || last.POIs <= len(d.Base.POIs) {
		t.Fatalf("dims did not grow: %dx%d from %dx%d",
			last.Users, last.POIs, d.Base.NumUsers, len(d.Base.POIs))
	}
	if out.Overall.Established.Count == 0 || out.Overall.Cold.Count == 0 {
		t.Fatalf("degenerate trajectory: splits %+v / %+v",
			out.Overall.Established, out.Overall.Cold)
	}
	var prevGen uint64
	s := check.Series{}
	for _, w := range out.Weeks {
		if w.Generation <= prevGen {
			t.Fatalf("week %d generation %d did not advance past %d", w.Week, w.Generation, prevGen)
		}
		prevGen = w.Generation
		s.Add("users", float64(w.Users))
		s.Add("pois", float64(w.POIs))
		s.Add("est_count", float64(w.Established.Count))
		s.Add("est_ndcg", w.Established.NDCG)
		s.Add("est_recall", w.Established.Recall)
		s.Add("cold_count", float64(w.Cold.Count))
		s.Add("cold_ndcg", w.Cold.NDCG)
		s.Add("cold_recall", w.Cold.Recall)
	}
	check.Golden(t, "replay_drift_6w", s)
}

// TestReplayHTTPMatchesLocal replays the same stream twice — once in-process,
// once through a growth-enabled serve node's HTTP API — and requires
// identical metrics: the full handler → single-writer → snapshot-swap
// pipeline must be behaviorally transparent, folding every week without a
// restart while the model dimensions grow.
func TestReplayHTTPMatchesLocal(t *testing.T) {
	d, err := lbsn.GenerateDrift(driftConfig(43))
	if err != nil {
		t.Fatal(err)
	}

	local, err := Run(d, lbsn.Month, &LocalTarget{Rec: fitBase(t, d.Base), Online: onlineConfig()}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(fitBase(t, d.Base), serve.Options{Grow: true, Online: onlineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	remote, err := Run(d, lbsn.Month, &HTTPTarget{BaseURL: hs.URL}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	if len(remote.Weeks) != len(local.Weeks) {
		t.Fatalf("weeks %d vs %d", len(remote.Weeks), len(local.Weeks))
	}
	var prevGen uint64
	for i := range local.Weeks {
		l, r := local.Weeks[i], remote.Weeks[i]
		if r.Users != l.Users || r.POIs != l.POIs {
			t.Errorf("week %d dims: http %dx%d, local %dx%d", l.Week, r.Users, r.POIs, l.Users, l.POIs)
		}
		if r.Established != l.Established || r.Cold != l.Cold {
			t.Errorf("week %d metrics diverge:\n  http  est=%+v cold=%+v\n  local est=%+v cold=%+v",
				l.Week, r.Established, r.Cold, l.Established, l.Cold)
		}
		if r.Generation <= prevGen {
			t.Errorf("week %d: serve generation %d did not advance past %d", l.Week, r.Generation, prevGen)
		}
		prevGen = r.Generation
	}
}

// scriptedTarget unit-tests the protocol edges without a model.
type scriptedTarget struct {
	users, pois int
	recs        []int
	folds       int
}

func (s *scriptedTarget) Dims() (int, int, error)                { return s.users, s.pois, nil }
func (s *scriptedTarget) Recommend(int, int, int) ([]int, error) { return s.recs, nil }
func (s *scriptedTarget) ObserveWeek(wb lbsn.WeekBatch) (uint64, error) {
	s.folds++
	for _, u := range wb.NewUsers {
		if u.ID >= s.users {
			s.users = u.ID + 1
		}
	}
	for _, p := range wb.NewPOIs {
		if p.ID >= s.pois {
			s.pois = p.ID + 1
		}
	}
	return uint64(s.folds), nil
}

func TestReplayProtocol(t *testing.T) {
	base := &lbsn.Dataset{
		NumUsers: 2,
		POIs:     make([]lbsn.POI, 3),
		CheckIns: []lbsn.CheckIn{{User: 0, POI: 0}}, // pair (0,0) pre-visited
	}
	d := &lbsn.Drift{
		Base: base,
		Weeks: []lbsn.WeekBatch{
			{
				Week:     10,
				NewUsers: []lbsn.NewUser{{ID: 2}},
				CheckIns: []lbsn.CheckIn{
					{User: 0, POI: 0}, // skipped: already visited
					{User: 0, POI: 1}, // established, hit at rank 0
					{User: 2, POI: 2}, // skipped: user 2 not in model yet
					{User: 0, POI: 1}, // skipped: scored earlier this week
				},
			},
			{
				Week: 11,
				CheckIns: []lbsn.CheckIn{
					{User: 2, POI: 0}, // cold (arrived week 10), hit at rank 1
					{User: 2, POI: 2}, // skipped: folded (visited) in week 10
					{User: 1, POI: 9}, // skipped: POI 9 beyond dims
				},
			},
		},
	}
	target := &scriptedTarget{users: 2, pois: 3, recs: []int{1, 0, 2}}
	out, err := Run(d, lbsn.Month, target, Config{TopK: 3, ColdWeeks: 2})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := out.Weeks[0], out.Weeks[1]
	if w0.Skipped != 3 || w0.Established.Count != 1 || w0.Established.NDCG != 1 || w0.Cold.Count != 0 {
		t.Fatalf("week 10: %+v", w0)
	}
	if w1.Skipped != 2 || w1.Cold.Count != 1 || w1.Established.Count != 0 {
		t.Fatalf("week 11: %+v", w1)
	}
	if w1.Cold.Recall != 1 || w1.Cold.NDCG >= 1 || w1.Cold.NDCG <= 0 {
		t.Fatalf("week 11 cold stats: %+v", w1.Cold)
	}
	if w1.Users != 3 {
		t.Fatalf("post-fold users = %d, want 3", w1.Users)
	}
}
