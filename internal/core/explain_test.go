package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tcss/internal/geo"
)

// explainFixture: 2 users, 4 POIs on a line, user 0's friends visited POIs
// 1 and 2.
func explainFixture() (*Model, *SideInfo) {
	m := NewModel(2, 4, 3, 1)
	m.U1.Set(0, 0, 1)
	m.U1.Set(1, 0, 1)
	for j := 0; j < 4; j++ {
		m.U2.Set(j, 0, 0.2*float64(j+1))
	}
	m.U3.Set(0, 0, 0.2)
	m.U3.Set(1, 0, 1.0) // peak time unit 1
	m.U3.Set(2, 0, 0.5)
	m.H[0] = 1

	pts := []geo.Point{
		{Lat: 0, Lon: 0},
		{Lat: 0, Lon: 0.1},
		{Lat: 0, Lon: 0.2},
		{Lat: 0, Lon: 2.0},
	}
	side := &SideInfo{
		Dist:       geo.NewDistanceMatrix(pts),
		EntropyW:   []float64{0.9, 0.5, 0.7, 1.0},
		OwnPOIs:    [][]int{{0}, {}},
		FriendPOIs: [][]int{{1, 2}, {}},
	}
	return m, side
}

func TestExplainBasics(t *testing.T) {
	m, side := explainFixture()
	ex := m.Explain(side, 0, 1, 0)
	if ex.Score != m.Predict(0, 1, 0) {
		t.Fatal("score mismatch")
	}
	if ex.PeakTimeUnit != 1 {
		t.Fatalf("peak time = %d, want 1", ex.PeakTimeUnit)
	}
	if !ex.FriendVisited {
		t.Fatal("POI 1 is friend-visited")
	}
	if ex.NearestFriendDist != 0 || ex.NearestFriendPOI != 1 {
		t.Fatalf("nearest friend POI = %d at %g, want itself at 0", ex.NearestFriendPOI, ex.NearestFriendDist)
	}
	if ex.LocationEntropyW != 0.5 {
		t.Fatalf("entropy weight = %g, want 0.5", ex.LocationEntropyW)
	}
	if ex.OwnVisited {
		t.Fatal("POI 1 is not own-visited")
	}
	if ex.NearestOwnPOI != 0 {
		t.Fatalf("nearest own POI = %d, want 0", ex.NearestOwnPOI)
	}
}

func TestExplainFarPOI(t *testing.T) {
	m, side := explainFixture()
	ex := m.Explain(side, 0, 3, 2)
	if ex.FriendVisited {
		t.Fatal("POI 3 is not friend-visited")
	}
	if ex.NearestFriendPOI != 2 {
		t.Fatalf("nearest friend POI = %d, want 2", ex.NearestFriendPOI)
	}
	want := side.Dist.At(3, 2)
	if math.Abs(ex.NearestFriendDist-want) > 1e-9 {
		t.Fatalf("nearest friend dist = %g, want %g", ex.NearestFriendDist, want)
	}
}

func TestExplainUserWithoutFriends(t *testing.T) {
	m, side := explainFixture()
	ex := m.Explain(side, 1, 0, 0)
	if ex.NearestFriendPOI != -1 || !math.IsInf(ex.NearestFriendDist, 1) {
		t.Fatal("friendless user must report no friend POI")
	}
	if ex.NearestOwnPOI != -1 {
		t.Fatal("user 1 has no own POIs")
	}
}

func TestExplainNilSide(t *testing.T) {
	m, _ := explainFixture()
	ex := m.Explain(nil, 0, 0, 0)
	if ex.LocationEntropyW != 1 || ex.NearestFriendPOI != -1 {
		t.Fatal("nil side info must give neutral defaults")
	}
}

func TestExplanationString(t *testing.T) {
	m, side := explainFixture()
	s := m.Explain(side, 0, 1, 0).String()
	if !strings.Contains(s, "visited by friends") {
		t.Fatalf("String missing social clause: %s", s)
	}
	s = m.Explain(side, 0, 3, 0).String()
	if !strings.Contains(s, "km from friend POI") {
		t.Fatalf("String missing distance clause: %s", s)
	}
	s = m.Explain(side, 1, 0, 0).String()
	if !strings.Contains(s, "no friend signal") {
		t.Fatalf("String missing no-signal clause: %s", s)
	}
}

// String renders a one-line human-readable explanation.
func (e Explanation) String() string {
	social := "no friend signal"
	if e.FriendVisited {
		social = "visited by friends"
	} else if e.NearestFriendPOI >= 0 && !math.IsInf(e.NearestFriendDist, 1) {
		social = fmt.Sprintf("%.1f km from friend POI %d", e.NearestFriendDist, e.NearestFriendPOI)
	}
	return fmt.Sprintf("POI %d for user %d at t=%d: score %.3f (peak t=%d), p(visit)=%.3f, %s, e_j=%.3f",
		e.POI, e.User, e.TimeUnit, e.Score, e.PeakTimeUnit, e.VisitProbability, social, e.LocationEntropyW)
}
