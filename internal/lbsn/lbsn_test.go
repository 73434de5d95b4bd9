package lbsn

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcss/internal/geo"
)

func smallConfig(seed int64) GenConfig {
	return GenConfig{
		Name:              "test",
		Users:             40,
		POIs:              32,
		Clusters:          4,
		Box:               geo.BoundingBox{MinLat: 30, MaxLat: 30.5, MinLon: -98, MaxLon: -97.5},
		ClusterSigmaDeg:   0.01,
		SocialDegree:      4,
		Rewire:            0.1,
		HomophilyEdgeProb: 0.05,
		CheckInsPerUser:   20,
		FriendAdoption:    0.4,
		LocalityBias:      0.7,
		ZipfS:             0.9,
		SeasonalSharpness: 1,
		Seed:              seed,
	}
}

func TestGenerateValidates(t *testing.T) {
	ds := MustGenerate(smallConfig(1))
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers != 40 || len(ds.POIs) != 32 {
		t.Fatalf("dims wrong: %d users %d POIs", ds.NumUsers, len(ds.POIs))
	}
	if len(ds.CheckIns) == 0 {
		t.Fatal("no check-ins generated")
	}
	// Every user has at least one friend (paper preprocessing guarantee).
	for u := 0; u < ds.NumUsers; u++ {
		if ds.Social.Degree(u) < 1 {
			t.Fatalf("user %d has no friends", u)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(smallConfig(7))
	b := MustGenerate(smallConfig(7))
	if len(a.CheckIns) != len(b.CheckIns) {
		t.Fatal("same seed must give same check-in count")
	}
	for i := range a.CheckIns {
		if a.CheckIns[i] != b.CheckIns[i] {
			t.Fatal("same seed must give identical check-ins")
		}
	}
	c := MustGenerate(smallConfig(8))
	if len(a.CheckIns) == len(c.CheckIns) {
		same := true
		for i := range a.CheckIns {
			if a.CheckIns[i] != c.CheckIns[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds should differ")
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Users = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("zero users must error")
	}
	cfg = smallConfig(1)
	cfg.Clusters = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("zero clusters must error")
	}
}

func TestTensorBinaryAndDims(t *testing.T) {
	ds := MustGenerate(smallConfig(2))
	for _, g := range []Granularity{Month, Week, Hour} {
		x := ds.Tensor(g)
		if x.DimI != ds.NumUsers || x.DimJ != len(ds.POIs) || x.DimK != g.Len() {
			t.Fatalf("%v tensor dims %dx%dx%d", g, x.DimI, x.DimJ, x.DimK)
		}
		for _, e := range x.Entries() {
			if e.Val != 1 {
				t.Fatalf("tensor must be binary, got %g", e.Val)
			}
		}
	}
	// Month tensor NNZ is bounded by raw check-ins (duplicates collapse).
	if ds.Tensor(Month).NNZ() > len(ds.CheckIns) {
		t.Fatal("tensor NNZ exceeds raw check-ins")
	}
}

func TestGranularity(t *testing.T) {
	c := CheckIn{Month: 3, Week: 14, Hour: 22}
	if Month.Index(c) != 3 || Week.Index(c) != 14 || Hour.Index(c) != 22 {
		t.Fatal("granularity index wrong")
	}
	if Month.Len() != 12 || Week.Len() != 53 || Hour.Len() != 24 {
		t.Fatal("granularity lengths wrong")
	}
}

func TestCategorySlice(t *testing.T) {
	ds := MustGenerate(smallConfig(3))
	sliced := ds.CategorySlice(Food)
	if err := sliced.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range sliced.POIs {
		if p.Category != Food {
			t.Fatal("non-food POI survived the slice")
		}
	}
	var wantCheckins int
	for _, c := range ds.CheckIns {
		if ds.POIs[c.POI].Category == Food {
			wantCheckins++
		}
	}
	if len(sliced.CheckIns) != wantCheckins {
		t.Fatalf("sliced check-ins = %d, want %d", len(sliced.CheckIns), wantCheckins)
	}
}

func TestSeasonalityInGeneratedData(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Users, cfg.CheckInsPerUser = 80, 40
	ds := MustGenerate(cfg)
	// Outdoor check-ins must concentrate in summer (May-Aug) vs winter
	// (Nov-Feb): the generator's core seasonal structure.
	var summer, winter int
	for _, c := range ds.CheckIns {
		if ds.POIs[c.POI].Category != Outdoor {
			continue
		}
		switch c.Month {
		case 4, 5, 6, 7:
			summer++
		case 10, 11, 0, 1:
			winter++
		}
	}
	if summer <= 2*winter {
		t.Fatalf("outdoor seasonality too weak: summer=%d winter=%d", summer, winter)
	}
}

func TestFriendCoVisitation(t *testing.T) {
	// Friends should share more distinct POIs than random pairs — the social
	// homophily the Hausdorff loss exploits (paper Figure 1c).
	cfg := smallConfig(5)
	cfg.Users, cfg.CheckInsPerUser = 60, 30
	ds := MustGenerate(cfg)
	visited := make([]map[int]bool, ds.NumUsers) // each user's distinct POIs
	for u := range visited {
		visited[u] = make(map[int]bool)
	}
	for _, c := range ds.CheckIns {
		visited[c.User][c.POI] = true
	}
	overlap := func(u, v int) float64 {
		var c int
		for j := range visited[u] {
			if visited[v][j] {
				c++
			}
		}
		union := len(visited[u]) + len(visited[v]) - c
		if union == 0 {
			return 0
		}
		return float64(c) / float64(union)
	}
	var friendSum float64
	var friendN int
	for _, e := range ds.Social.Edges() {
		friendSum += overlap(e[0], e[1])
		friendN++
	}
	var randSum float64
	var randN int
	for u := 0; u < ds.NumUsers; u++ {
		for v := u + 1; v < ds.NumUsers; v += 7 {
			if !ds.Social.HasEdge(u, v) {
				randSum += overlap(u, v)
				randN++
			}
		}
	}
	friendAvg, randAvg := friendSum/float64(friendN), randSum/float64(randN)
	if friendAvg <= randAvg {
		t.Fatalf("friend overlap %g must exceed non-friend overlap %g", friendAvg, randAvg)
	}
}

func TestFriendshipGeographicHomophily(t *testing.T) {
	// Friends must predominantly share a home cluster (paper Figure 1c):
	// the generated friendship graph is the substrate the social Hausdorff
	// head's assumptions rest on. Check via check-in geography: the mean
	// distance between friends' check-in centroids must be far below that
	// of random pairs.
	cfg, err := NewPreset(PresetGowalla, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Users, cfg.POIs = 120, 240
	ds := MustGenerate(cfg)
	centroid := make([]geo.Point, ds.NumUsers)
	counts := make([]int, ds.NumUsers)
	for _, c := range ds.CheckIns {
		centroid[c.User].Lat += ds.POIs[c.POI].Loc.Lat
		centroid[c.User].Lon += ds.POIs[c.POI].Loc.Lon
		counts[c.User]++
	}
	for u := range centroid {
		if counts[u] > 0 {
			centroid[u].Lat /= float64(counts[u])
			centroid[u].Lon /= float64(counts[u])
		}
	}
	var friendSum float64
	var friendN int
	for _, e := range ds.Social.Edges() {
		if counts[e[0]] == 0 || counts[e[1]] == 0 {
			continue
		}
		friendSum += geo.Haversine(centroid[e[0]], centroid[e[1]])
		friendN++
	}
	var randSum float64
	var randN int
	for u := 0; u < ds.NumUsers; u++ {
		for v := u + 1; v < ds.NumUsers; v += 11 {
			if counts[u] == 0 || counts[v] == 0 || ds.Social.HasEdge(u, v) {
				continue
			}
			randSum += geo.Haversine(centroid[u], centroid[v])
			randN++
		}
	}
	friendAvg, randAvg := friendSum/float64(friendN), randSum/float64(randN)
	if friendAvg >= randAvg/2 {
		t.Fatalf("friend centroid distance %g km should be far below random pairs %g km", friendAvg, randAvg)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := NewPreset(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Users == 0 || cfg.POIs == 0 {
			t.Fatalf("preset %s has empty dims", name)
		}
	}
	if _, err := NewPreset("nope", 1); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestPresetDensityOrdering(t *testing.T) {
	// GMU-5K must be the densest and Yelp the sparsest, as in the paper.
	density := func(name string) float64 {
		cfg, err := NewPreset(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		// Shrink for test speed while keeping proportions.
		cfg.Users /= 4
		cfg.POIs /= 4
		return MustGenerate(cfg).Tensor(Month).Density()
	}
	gowalla, yelp, gmu := density(PresetGowalla), density(PresetYelp), density(PresetGMU5K)
	if !(gmu > gowalla && gowalla > yelp) {
		t.Fatalf("density ordering wrong: gmu=%g gowalla=%g yelp=%g", gmu, gowalla, yelp)
	}
}

func TestSummary(t *testing.T) {
	ds := MustGenerate(smallConfig(10))
	s := ds.Summary()
	if s.Users != 40 || s.POIs != 32 || s.CheckIns != len(ds.CheckIns) {
		t.Fatalf("Summary wrong: %+v", s)
	}
	if s.TensorDensityMonth <= 0 || s.MeanDegree <= 0 {
		t.Fatalf("Summary stats must be positive: %+v", s)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	ds := MustGenerate(smallConfig(11))
	dir := t.TempDir()
	if err := ds.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDir(dir, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumUsers != ds.NumUsers || len(back.POIs) != len(ds.POIs) || len(back.CheckIns) != len(ds.CheckIns) {
		t.Fatalf("round-trip dims: %d/%d/%d vs %d/%d/%d",
			back.NumUsers, len(back.POIs), len(back.CheckIns),
			ds.NumUsers, len(ds.POIs), len(ds.CheckIns))
	}
	if back.Social.EdgeCount() != ds.Social.EdgeCount() {
		t.Fatal("round-trip lost edges")
	}
	for i := range ds.CheckIns {
		if back.CheckIns[i] != ds.CheckIns[i] {
			t.Fatal("round-trip check-in mismatch")
		}
	}
	for i := range ds.POIs {
		if back.POIs[i].Category != ds.POIs[i].Category ||
			math.Abs(back.POIs[i].Loc.Lat-ds.POIs[i].Loc.Lat) > 1e-12 {
			t.Fatal("round-trip POI mismatch")
		}
	}
}

func TestReadDirMissing(t *testing.T) {
	if _, err := ReadDir(t.TempDir(), "x"); err == nil {
		t.Fatal("missing files must error")
	}
}

// TestReadDirRejectsBadCoordinates rewrites the first POI's latitude and
// longitude in a written dataset: ReadDir must refuse every coordinate that
// is not finite or lies off the globe, and accept the edges of the range.
func TestReadDirRejectsBadCoordinates(t *testing.T) {
	ds := MustGenerate(smallConfig(11))
	for _, tc := range []struct {
		lat, lon string
		ok       bool
	}{
		{"90", "-180", true},
		{"NaN", "0", false},
		{"0", "+Inf", false},
		{"90.5", "0", false},
		{"0", "-180.5", false},
	} {
		dir := t.TempDir()
		if err := ds.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, poisFile)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		fields := strings.Split(lines[1], ",")
		fields[1], fields[2] = tc.lat, tc.lon
		lines[1] = strings.Join(fields, ",")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadDir(dir, "x"); (err == nil) != tc.ok {
			t.Errorf("lat %s lon %s: err = %v, want ok %v", tc.lat, tc.lon, err, tc.ok)
		}
	}
}

func TestCategoryAndGranularityStrings(t *testing.T) {
	if Shopping.String() != "shopping" || Outdoor.String() != "outdoor" {
		t.Fatal("category names wrong")
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category must still render")
	}
	if Month.String() != "month" || Granularity(99).String() == "" {
		t.Fatal("granularity names wrong")
	}
}

func TestGranularityPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown granularity Len must panic")
		}
	}()
	Granularity(99).Len()
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds := MustGenerate(smallConfig(50))
	cases := []func(*Dataset){
		func(d *Dataset) { d.CheckIns[0].User = -1 },
		func(d *Dataset) { d.CheckIns[0].POI = len(d.POIs) },
		func(d *Dataset) { d.CheckIns[0].Month = 12 },
		func(d *Dataset) { d.POIs[3].ID = 0 },
		func(d *Dataset) { d.Social = nil },
	}
	for n, corrupt := range cases {
		c := MustGenerate(smallConfig(50))
		_ = ds
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Fatalf("corruption %d must fail validation", n)
		}
	}
}
