package core

import "math"

// Explanation decomposes why the model recommends a POI to a user: the raw
// score at the queried time unit, the all-time visit probability (Eq 10's
// p_{i,j}), the peak time unit, whether friends visited the POI, the distance
// to the nearest friend-visited POI, and the POI's location-entropy weight.
// It makes the social-spatial reasoning of the TCSS loss inspectable at
// recommendation time.
type Explanation struct {
	User, POI, TimeUnit int

	Score            float64 // X̂[i,j,k] at the queried time unit
	VisitProbability float64 // p_{i,j} across all time units
	PeakTimeUnit     int     // argmax_k X̂[i,j,k]
	PeakScore        float64

	FriendVisited      bool    // j ∈ N(v_i)
	NearestFriendPOI   int     // closest member of N(v_i), -1 if none
	NearestFriendDist  float64 // kilometres; +Inf if no friend POIs
	LocationEntropyW   float64 // e_j = exp(−E_j); 1 when unweighted
	OwnVisited         bool    // user already visited j in training
	NearestOwnPOI      int     // closest own POI, -1 if none
	NearestOwnDistance float64 // kilometres; +Inf if none
}

// Explain builds the explanation of scoring (i, j, k) against the given side
// information (which may be the training-time SideInfo).
func (m *Model) Explain(side *SideInfo, i, j, k int) Explanation {
	ex := Explanation{
		User: i, POI: j, TimeUnit: k,
		Score:              m.Predict(i, j, k),
		VisitProbability:   m.VisitProbability(i, j),
		NearestFriendPOI:   -1,
		NearestFriendDist:  math.Inf(1),
		NearestOwnPOI:      -1,
		NearestOwnDistance: math.Inf(1),
		LocationEntropyW:   1,
	}
	for kk := 0; kk < m.K; kk++ {
		if s := m.Predict(i, j, kk); kk == 0 || s > ex.PeakScore {
			ex.PeakScore = s
			ex.PeakTimeUnit = kk
		}
	}
	if side == nil {
		return ex
	}
	if side.EntropyW != nil {
		ex.LocationEntropyW = side.EntropyW[j]
	}
	if friends := side.FriendPOIs[i]; len(friends) > 0 {
		ex.NearestFriendPOI, ex.NearestFriendDist = side.Dist.Nearest(j, friends)
		for _, fj := range friends {
			if fj == j {
				ex.FriendVisited = true
				break
			}
		}
	}
	if own := side.OwnPOIs[i]; len(own) > 0 {
		ex.NearestOwnPOI, ex.NearestOwnDistance = side.Dist.Nearest(j, own)
		for _, oj := range own {
			if oj == j {
				ex.OwnVisited = true
				break
			}
		}
	}
	return ex
}
