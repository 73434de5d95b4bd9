package tcss

import (
	"fmt"
	"math/rand"

	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
)

// SideInfo is re-exported so synthetic serving callers can hold side
// information without importing internal/core.
type SideInfo = core.SideInfo

// SynthServing builds a deterministic synthetic serving model: seeded random
// factor matrices of the requested shape plus minimal side information (a
// generated POI geography for the distances, uniform entropy weights,
// empty own/friend POI sets). It skips training entirely, which makes
// production-scale serving shapes — millions of users — constructible in
// well under a second.
//
// Determinism is the point: two processes calling SynthServing with the same
// arguments get bit-identical models (the factor fill order is fixed, and
// every operation is plain float64 arithmetic), so a load generator can
// recompute a cluster's expected answers locally and compare responses
// byte for byte. The model is for serving-path work only — routing, failover,
// replication, capacity tests — its scores carry no recommendation meaning.
func SynthServing(users, pois, times, rank int, seed int64) (*Model, *SideInfo, error) {
	if users <= 0 || pois <= 0 || times <= 0 || rank <= 0 {
		return nil, nil, fmt.Errorf("tcss: synthetic model needs positive dims, got %dx%dx%d rank %d",
			users, pois, times, rank)
	}
	m := core.NewModel(users, pois, times, rank)
	rng := rand.New(rand.NewSource(seed))
	// Fixed fill order: H, U1, U2, U3, then geography.
	for t := range m.H {
		m.H[t] = rng.Float64()*2 - 1
	}
	for _, u := range []*[]float64{&m.U1.Data, &m.U2.Data, &m.U3.Data} {
		data := *u
		for i := range data {
			data[i] = rng.Float64()*2 - 1
		}
	}
	// POIs scattered over a ~100km box so distances are varied but bounded.
	pts := make([]geo.Point, pois)
	for j := range pts {
		pts[j] = geo.Point{Lat: 38.8 + rng.Float64(), Lon: -77.3 + rng.Float64()}
	}
	side := &SideInfo{
		Dist:       geo.NewDistanceMatrix(pts),
		EntropyW:   make([]float64, pois),
		OwnPOIs:    make([][]int, users),
		FriendPOIs: make([][]int, users),
	}
	for j := range side.EntropyW {
		side.EntropyW[j] = 1
	}
	return m, side, nil
}

// SynthGranularity returns the granularity matching a synthetic model's time
// dimension: Month for 12, Week for 53, Hour for 24. Other sizes default to
// Month (observes are rejected on synthetic read-only nodes anyway).
func SynthGranularity(times int) Granularity {
	switch times {
	case lbsn.Week.Len():
		return Week
	case lbsn.Hour.Len():
		return Hour
	default:
		return Month
	}
}
