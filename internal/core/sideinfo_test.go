package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tcss/internal/geo"
	"tcss/internal/graph"
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

// refGrowSideInfo is the map-based fold GrowSideInfo replaced, kept as the
// reference FuzzGrowSideInfo holds it to: one map per dirty POI, per dirty
// user and per friend set, each listed in ascending order.
func refGrowSideInfo(old *SideInfo, social *graph.Graph, dist *geo.DistanceMatrix, train *tensor.COO, touched []tensor.Entry) *SideInfo {
	I, J := train.DimI, train.DimJ
	side := &SideInfo{Dist: dist, EntropyW: make([]float64, J), OwnPOIs: make([][]int, I), FriendPOIs: make([][]int, I)}
	var oldI, oldJ int
	if old != nil {
		oldI, oldJ = len(old.OwnPOIs), len(old.EntropyW)
		copy(side.EntropyW, old.EntropyW)
		copy(side.OwnPOIs, old.OwnPOIs)
		copy(side.FriendPOIs, old.FriendPOIs)
	}
	userDirty := make([]bool, I)
	poiDirty := make([]bool, J)
	for i := oldI; i < I; i++ {
		userDirty[i] = true
	}
	for j := oldJ; j < J; j++ {
		poiDirty[j] = true
	}
	for _, e := range touched {
		userDirty[e.I] = true
		poiDirty[e.J] = true
	}
	// sortedKeys lists a POI set in ascending order; an empty set gives [],
	// not nil.
	sortedKeys := func(set map[int]struct{}) []int {
		lst := make([]int, 0, len(set))
		for j := range set {
			lst = append(lst, j)
		}
		sort.Ints(lst)
		return lst
	}

	visitCounts := make([]map[int]int, J) // POI -> user -> #time-units
	ownSets := make([]map[int]struct{}, I)
	for _, e := range train.Entries() {
		if poiDirty[e.J] {
			if visitCounts[e.J] == nil {
				visitCounts[e.J] = make(map[int]int)
			}
			visitCounts[e.J][e.I]++
		}
		if userDirty[e.I] {
			if ownSets[e.I] == nil {
				ownSets[e.I] = make(map[int]struct{})
			}
			ownSets[e.I][e.J] = struct{}{}
		}
	}
	for j, dirty := range poiDirty {
		if !dirty {
			continue
		}
		visits := make([]int, 0, len(visitCounts[j]))
		for _, c := range visitCounts[j] {
			visits = append(visits, c)
		}
		sort.Ints(visits)
		side.EntropyW[j] = geo.EntropyWeight(geo.LocationEntropy(visits))
	}
	for i, dirty := range userDirty {
		if dirty {
			side.OwnPOIs[i] = sortedKeys(ownSets[i])
		}
	}

	friendDirty := userDirty
	if old != nil {
		friendDirty = slices.Clone(userDirty)
		for u, dirty := range userDirty {
			if dirty {
				for _, v := range social.Neighbors(u) {
					friendDirty[v] = true
				}
			}
		}
	}
	for v, dirty := range friendDirty {
		if !dirty {
			continue
		}
		set := make(map[int]struct{})
		for _, f := range social.Neighbors(v) {
			for _, j := range side.OwnPOIs[f] {
				set[j] = struct{}{}
			}
		}
		side.FriendPOIs[v] = sortedKeys(set)
	}
	return side
}

// FuzzGrowSideInfo holds the fold to refGrowSideInfo bit for bit, nil rows
// included, on small worlds: with or without an old base, and with users,
// POIs and friendships grown since it. It also checks that old is left as
// it was and that the fold equals a fold of every row. Byte 0 sets I (1 to
// 8), 1 J (1 to 160, so POI sets span up to three 64-bit words), 2 K (1 to
// 8), 3 how many users and 4 how many POIs are new since old (0 to 2; bit 2
// of byte 3 drops old), 5 the number of old friendships and 6 of old cells;
// then come those pairs and triples, one friendship per new user, and the
// touched cells as (i, j, k, value) quadruples to the end, a value byte
// below 32 deleting the cell.
func FuzzGrowSideInfo(f *testing.F) {
	f.Add([]byte{4, 5, 2, 1, 1, 3, 6, 0, 1, 1, 2, 2, 3, 0, 0, 0, 0, 1, 1, 1, 0, 0, 2, 1, 1, 3, 2, 1, 0, 1, 2, 4, 1, 0, 3, 4, 0, 40, 2, 2, 1, 9})
	f.Add([]byte{3, 3, 1, 4, 0, 1, 4, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 2, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 8, 8, 2, 2, 6, 12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 0, 6, 1, 1, 0, 7, 2, 7, 0, 3, 2, 4, 0, 3, 2, 4, 5, 200, 7, 0, 1, 100})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 0})
	// At the word edges: J = 63 and 64 with no growth, 65 grown from 63 and
	// 129 grown from 127, the cells on the last POIs of each word.
	f.Add([]byte{5, 62, 3, 1, 0, 4, 10, 0, 1, 1, 2, 2, 3, 3, 4,
		0, 62, 0, 0, 61, 1, 1, 0, 0, 1, 62, 1, 1, 62, 2, 2, 31, 0, 3, 62, 3, 4, 1, 0, 5, 60, 0, 0, 62, 2,
		5, 6, 62, 1, 40, 0, 62, 0, 0, 2, 33, 3, 99})
	f.Add([]byte{5, 63, 3, 4, 0, 4, 8, 0, 1, 1, 2, 2, 3, 3, 4,
		0, 63, 0, 1, 63, 1, 1, 0, 2, 2, 62, 0, 3, 63, 1, 4, 32, 2, 5, 63, 0, 0, 1, 1,
		4, 4, 63, 2, 50, 1, 63, 1, 0})
	f.Add([]byte{5, 62, 3, 1, 2, 4, 8, 0, 1, 1, 2, 2, 3, 3, 4,
		0, 62, 0, 1, 62, 1, 1, 0, 2, 2, 61, 0, 3, 62, 1, 4, 32, 2, 5, 62, 0, 0, 1, 1,
		2, 6, 64, 0, 40, 0, 63, 1, 90, 1, 64, 2, 33, 1, 62, 1, 0})
	f.Add([]byte{6, 126, 4, 2, 5, 5, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5,
		0, 126, 0, 1, 126, 1, 1, 63, 2, 2, 64, 3, 3, 127, 0, 4, 0, 1, 5, 126, 2, 0, 63, 3, 2, 64, 0,
		0, 4, 7, 128, 0, 60, 6, 127, 3, 70, 0, 128, 1, 33, 2, 64, 3, 5, 3, 126, 2, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		I0, J0, K := 1+int(data[0])%8, 1+int(data[1])%160, 1+int(data[2])%8
		newI, newJ, withOld := int(data[3])%3, int(data[4])%3, data[3]&4 == 0
		I, J := I0+newI, J0+newJ
		nEdges, nCells := int(data[5])%16, int(data[6])%32
		next := 7
		draw := func(n int) int {
			if next >= len(data) {
				return 0
			}
			next++
			return int(data[next-1]) % n
		}

		social := graph.New(I0)
		for e := 0; e < nEdges; e++ {
			if u, v := draw(I0), draw(I0); u != v {
				social.AddEdge(u, v)
			}
		}
		x := tensor.NewCOO(I0, J0, K)
		for c := 0; c < nCells; c++ {
			x.Set(draw(I0), draw(J0), draw(K), 1)
		}
		pts := make([]geo.Point, J)
		for j := range pts {
			pts[j] = geo.Point{Lat: 30 + 0.01*float64(j), Lon: -97}
		}
		var old, before *SideInfo
		if withOld {
			old = refGrowSideInfo(nil, social, geo.NewDistanceMatrix(pts[:J0]), x, nil)
			before = cloneSide(old)
		}

		// Growth: each new user befriends one earlier user.
		first := social.AddVertices(newI)
		for u := first; u < I; u++ {
			social.AddEdge(u, draw(u))
		}
		x.Grow(I, J, K)
		var touched []tensor.Entry
		for next+4 <= len(data) {
			c := data[next:]
			next += 4
			e := tensor.Entry{I: int(c[0]) % I, J: int(c[1]) % J, K: int(c[2]) % K}
			if c[3] >= 32 {
				e.Val = 1
			}
			x.Set(e.I, e.J, e.K, e.Val)
			touched = append(touched, e)
		}

		dist := geo.NewDistanceMatrix(pts)
		got, err := GrowSideInfo(old, social, dist, x, touched)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalSide(t, "fold vs reference", got, refGrowSideInfo(old, social, dist, x, touched))
		if withOld {
			requireIdenticalSide(t, "old after the fold", old, before)
		}
		full, err := BuildSideInfo(social, dist, x)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalSide(t, "fold vs every row", got, full)
	})
}

// requireIdenticalSide is requireSameSide that also tells a nil row from an
// empty one.
func requireIdenticalSide(t *testing.T, what string, a, b *SideInfo) {
	t.Helper()
	requireSameSide(t, what, a, b)
	for i := range a.OwnPOIs {
		if (a.OwnPOIs[i] == nil) != (b.OwnPOIs[i] == nil) || (a.FriendPOIs[i] == nil) != (b.FriendPOIs[i] == nil) {
			t.Fatalf("%s: user %d rows nil %v/%v, want %v/%v", what, i,
				a.OwnPOIs[i] == nil, a.FriendPOIs[i] == nil, b.OwnPOIs[i] == nil, b.FriendPOIs[i] == nil)
		}
	}
}

// TestGrowSideInfoAllocs bounds a full fold of node-write's training tensor
// (gowalla, monthly) to 4 objects per user plus a constant: the rows it
// returns, one neighbour list per user and the scratch.
func TestGrowSideInfoAllocs(t *testing.T) {
	train, social, dist := sideBenchWorld()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildSideInfo(social, dist, train); err != nil {
			t.Fatal(err)
		}
	})
	if bound := float64(4*train.DimI + 64); allocs > bound {
		t.Fatalf("a full fold at I = %d allocates %v objects, bound %v", train.DimI, allocs, bound)
	}
}

// BenchmarkGrowSideInfo times the fold at node-write's shape: every row
// (full), 8 new in-range cells folded onto the full fold (in-range), and
// every row after 9 600 more cells, node-write's history at the end of a run
// (full-history).
func BenchmarkGrowSideInfo(b *testing.B) {
	train, social, dist := sideBenchWorld()
	base, err := BuildSideInfo(social, dist, train)
	if err != nil {
		b.Fatal(err)
	}
	observed := train.Clone()
	touched := addRandomCells(observed, 8, 2)
	history := train.Clone()
	addRandomCells(history, 9600, 3)
	for _, bc := range []struct {
		name    string
		old     *SideInfo
		train   *tensor.COO
		touched []tensor.Entry
	}{
		{"full", nil, train, nil},
		{"in-range", base, observed, touched},
		{"full-history", nil, history, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if benchSide, err = GrowSideInfo(bc.old, social, dist, bc.train, bc.touched); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSide *SideInfo

// addRandomCells sets n cells of x that were unobserved, drawn from a
// generator seeded with seed, and returns them.
func addRandomCells(x *tensor.COO, n int, seed int64) []tensor.Entry {
	rng := rand.New(rand.NewSource(seed))
	var added []tensor.Entry
	for len(added) < n {
		e := tensor.Entry{I: rng.Intn(x.DimI), J: rng.Intn(x.DimJ), K: rng.Intn(x.DimK), Val: 1}
		if !x.Has(e.I, e.J, e.K) {
			x.Set(e.I, e.J, e.K, 1)
			added = append(added, e)
		}
	}
	return added
}

// sideBenchWorld is node-write's training tensor: the gowalla preset at seed
// 1, monthly, split 80/20, with its social graph and distances.
func sideBenchWorld() (*tensor.COO, *graph.Graph, *geo.DistanceMatrix) {
	ds := lbsn.MustPreset("gowalla", 1)
	train, _ := ds.Tensor(lbsn.Month).Split(0.8, rand.New(rand.NewSource(1)))
	return train, ds.Social, ds.Distances()
}
