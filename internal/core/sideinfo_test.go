package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/tensor"
)

// TestSideInfoFollowsPaperDefinitions checks the fold on a generated preset
// against the paper's definitions, computed here independently of it:
// OwnPOIs[v] is v's distinct training POIs, FriendPOIs[v] — N(v) of Eq 8 — is
// the union of v's friends' own POIs, and e_j = exp(−E_j) of Eq 11–12 is 1
// for an unvisited POI and lies in [1/#visitors, 1] otherwise, since E_j is
// at most the log of the number of visitors. E_j itself is the entropy of
// the POI's visitors weighted by the time units each visited it in.
func TestSideInfoFollowsPaperDefinitions(t *testing.T) {
	ds := lbsn.MustPreset("gowalla", 7)
	train, _ := ds.Tensor(lbsn.Month).Split(0.8, rand.New(rand.NewSource(7)))
	side, err := BuildSideInfo(ds.Social, ds.Distances(), train)
	if err != nil {
		t.Fatal(err)
	}
	own := make([]map[int]bool, train.DimI)
	for v := range own {
		own[v] = make(map[int]bool)
	}
	visitors := make([]map[int]int, train.DimJ) // user -> time units at j
	for j := range visitors {
		visitors[j] = make(map[int]int)
	}
	for _, e := range train.Entries() {
		own[e.I][e.J] = true
		visitors[e.J][e.I]++
	}
	sorted := func(set map[int]bool) []int {
		out := make([]int, 0, len(set))
		for j := range set {
			out = append(out, j)
		}
		slices.Sort(out)
		return out
	}

	for v := range own {
		if want := sorted(own[v]); !slices.Equal(side.OwnPOIs[v], want) {
			t.Fatalf("OwnPOIs[%d] = %v, want %v", v, side.OwnPOIs[v], want)
		}
		friends := make(map[int]bool)
		for _, f := range ds.Social.Neighbors(v) {
			for j := range own[f] {
				friends[j] = true
			}
		}
		if want := sorted(friends); !slices.Equal(side.FriendPOIs[v], want) {
			t.Fatalf("FriendPOIs[%d] = %v, want the union of its friends' POIs %v", v, side.FriendPOIs[v], want)
		}
	}
	var unvisited, shared int
	for j, w := range side.EntropyW {
		switch n := len(visitors[j]); {
		case n == 0:
			unvisited++
			if w != 1 {
				t.Errorf("unvisited POI %d has e_j = %v, want 1", j, w)
			}
		case w > 1 || w < (1-1e-12)/float64(n):
			t.Errorf("POI %d with %d visitors has e_j = %v, outside [1/%d, 1]", j, n, w, n)
		case n > 1:
			shared++
		}
		var total, entropy float64
		for _, c := range visitors[j] {
			total += float64(c)
		}
		for _, c := range visitors[j] {
			entropy -= float64(c) / total * math.Log(float64(c)/total)
		}
		if math.Abs(w-math.Exp(-entropy)) > 1e-12 {
			t.Errorf("POI %d has e_j = %v, want exp(-E_j) = %v", j, w, math.Exp(-entropy))
		}
	}
	if unvisited == 0 || shared == 0 {
		t.Fatalf("preset split has %d unvisited and %d shared POIs; both cases need covering", unvisited, shared)
	}
}

// TestGrowSideInfoMatchesFullRebuild: whatever the base, the fold must be
// bit-equal to a fold of every row, and leave the base it was given as it
// was (published snapshots may still read it).
func TestGrowSideInfoMatchesFullRebuild(t *testing.T) {
	fx := newTrainFixture(43)
	I, J, K := fx.x.DimI, fx.x.DimJ, fx.x.DimK

	// The grown world: two new users (friends with 0 and 1) and one new POI.
	grownSocial := fx.social.Clone()
	first := grownSocial.AddVertices(2)
	grownSocial.AddEdge(first, 0)
	grownSocial.AddEdge(first+1, 1)
	pts := make([]geo.Point, J+1)
	for j := range pts {
		pts[j] = geo.Point{Lat: 30 + 0.01*float64(j), Lon: -97}
	}
	grownDist := geo.NewDistanceMatrix(pts)

	inRange := []tensor.Entry{{I: 2, J: 1, K: 1, Val: 1}, {I: 5, J: 7, K: 3, Val: 1}, {I: 0, J: J - 1, K: 0, Val: 1}}
	cases := []struct {
		name    string
		old     *SideInfo
		grow    bool
		touched []tensor.Entry
	}{
		{"in-range touched rows", fx.side, false, inRange},
		{"growth", fx.side, true, []tensor.Entry{{I: first, J: J, K: 0, Val: 1}, {I: 2, J: 1, K: 1, Val: 1}, {I: first + 1, J: 4, K: 2, Val: 1}}},
		{"empty touched", fx.side, true, nil},
		{"nil old", nil, false, inRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			social, dist, train := fx.social, fx.side.Dist, fx.x.Clone()
			if tc.grow {
				social, dist = grownSocial, grownDist
				train.Grow(I+2, J+1, K)
			}
			for _, e := range tc.touched {
				train.Set(e.I, e.J, e.K, e.Val)
			}
			if len(tc.touched) > 0 && train.NNZ() == fx.x.NNZ() {
				t.Fatal("touched entries add no cell")
			}
			before := cloneSide(fx.side)

			got, err := GrowSideInfo(tc.old, social, dist, train, tc.touched)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildSideInfo(social, dist, train)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSide(t, "fold", got, want)
			requireSameSide(t, "old after the fold", fx.side, before)
		})
	}
}

func cloneSide(s *SideInfo) *SideInfo {
	c := &SideInfo{EntropyW: slices.Clone(s.EntropyW)}
	for i := range s.OwnPOIs {
		c.OwnPOIs = append(c.OwnPOIs, slices.Clone(s.OwnPOIs[i]))
		c.FriendPOIs = append(c.FriendPOIs, slices.Clone(s.FriendPOIs[i]))
	}
	return c
}

// requireSameSide fails unless a and b hold bit-identical weights and equal
// POI lists.
func requireSameSide(t *testing.T, what string, a, b *SideInfo) {
	t.Helper()
	if len(a.EntropyW) != len(b.EntropyW) || len(a.OwnPOIs) != len(b.OwnPOIs) || len(a.FriendPOIs) != len(b.FriendPOIs) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, len(a.OwnPOIs), len(a.EntropyW), len(b.OwnPOIs), len(b.EntropyW))
	}
	for j := range a.EntropyW {
		if math.Float64bits(a.EntropyW[j]) != math.Float64bits(b.EntropyW[j]) {
			t.Fatalf("%s: EntropyW[%d] = %v, want %v", what, j, a.EntropyW[j], b.EntropyW[j])
		}
	}
	for i := range a.OwnPOIs {
		if !slices.Equal(a.OwnPOIs[i], b.OwnPOIs[i]) {
			t.Fatalf("%s: OwnPOIs[%d] = %v, want %v", what, i, a.OwnPOIs[i], b.OwnPOIs[i])
		}
		if !slices.Equal(a.FriendPOIs[i], b.FriendPOIs[i]) {
			t.Fatalf("%s: FriendPOIs[%d] = %v, want %v", what, i, a.FriendPOIs[i], b.FriendPOIs[i])
		}
	}
}

// BenchmarkBuildSideInfo times the all-rows fold on the gowalla preset's
// training split, the fold an in-range observe runs.
func BenchmarkBuildSideInfo(b *testing.B) {
	ds := lbsn.MustPreset("gowalla", 1)
	train, _ := ds.Tensor(lbsn.Month).Split(0.8, rand.New(rand.NewSource(1)))
	dist := ds.Distances()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var err error
		if benchSide, err = BuildSideInfo(ds.Social, dist, train); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSide *SideInfo
