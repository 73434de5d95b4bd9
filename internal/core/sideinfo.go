package core

import (
	"fmt"
	"math/bits"
	"slices"

	"tcss/internal/geo"
	"tcss/internal/graph"
	"tcss/internal/tensor"
)

// SideInfo bundles the social-spatial side information the TCSS loss heads
// consume: the POI distances, the location-entropy weights e_j, and
// the per-user POI sets derived from the TRAINING tensor only (so no test
// information leaks into the regularizer).
type SideInfo struct {
	Dist     *geo.DistanceMatrix
	EntropyW []float64 // e_j = exp(−E_j) per POI
	// OwnPOIs[v] is the sorted set of POIs user v visited in training.
	OwnPOIs [][]int
	// FriendPOIs[v] is N(v): the sorted union of training POIs visited by
	// v's friends (Eq 8).
	FriendPOIs [][]int
	// Locs, when non-nil, holds the POI coordinates of Dist (len == Dist.N)
	// for snapshot shipping, so a replica whose distances predate growth can
	// extend them. The fold leaves it nil; the tcss layer fills it in.
	Locs []geo.Point
}

// BuildSideInfo derives side information from the social graph, the POI
// distances and the observed training tensor: GrowSideInfo with every
// row recomputed.
func BuildSideInfo(social *graph.Graph, dist *geo.DistanceMatrix, train *tensor.COO) (*SideInfo, error) {
	return GrowSideInfo(nil, social, dist, train, nil)
}

// GrowSideInfo is the one fold of the training tensor into side information.
// Location entropy counts, for each POI, how many distinct time units each
// user visited it in — the tensor-level analogue of the paper's check-in
// multisets Φ — and is computed from the sorted counts, so the result does
// not depend on entry order.
//
// A nil old recomputes every row. Otherwise the result covers train's
// dimensions and recomputes exactly the rows the touched entries affect —
// their users' own sets, their POIs' entropy weights, and the friend sets of
// those users and their neighbours — plus every row grown since old; all
// other rows are carried over. old is never mutated — published snapshots may
// still reference it — and carried-over rows share their slices with old
// (copy-on-write at row granularity).
//
// The dirty rows' cells are counting-sorted into two flat buckets, users by
// POI and POIs by user, and nothing is sorted by comparison after that. A
// POI's bucket is counted per user, and the counts are listed in ascending
// order by a counting pass over 1…K. A user's own set is its bucket set as
// bits in one word array over the POIs, drained in ascending order; a friend
// set is the friends' own rows set into the same words. Every row the fold
// emits is a fresh, exactly sized slice — an empty one is [], not nil — that
// aliases none of this scratch.
//
// social and dist must already cover train's dimensions (grow them first with
// graph.AddVertices / geo.DistanceMatrix.Grown). dist is shared, not copied:
// it holds only the coordinates and d_max, so a fold costs nothing
// quadratic.
func GrowSideInfo(old *SideInfo, social *graph.Graph, dist *geo.DistanceMatrix, train *tensor.COO, touched []tensor.Entry) (*SideInfo, error) {
	if social.N() != train.DimI {
		return nil, fmt.Errorf("core: social graph covers %d users, tensor has %d", social.N(), train.DimI)
	}
	if dist.N != train.DimJ {
		return nil, fmt.Errorf("core: distance matrix covers %d POIs, tensor has %d", dist.N, train.DimJ)
	}
	I, J := train.DimI, train.DimJ
	side := &SideInfo{Dist: dist, EntropyW: make([]float64, J), OwnPOIs: make([][]int, I), FriendPOIs: make([][]int, I)}
	var oldI, oldJ int
	if old != nil {
		oldI, oldJ = len(old.OwnPOIs), len(old.EntropyW)
		if I < oldI || J < oldJ {
			return nil, fmt.Errorf("core: side info cannot shrink %dx%d to %dx%d", oldI, oldJ, I, J)
		}
		copy(side.EntropyW, old.EntropyW)
		copy(side.OwnPOIs, old.OwnPOIs)
		copy(side.FriendPOIs, old.FriendPOIs)
	}

	// Rows needing recomputation: every row grown since old, and the rows of
	// the touched entries.
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

	// Two passes over the training entries bucket the cells of exactly the
	// dirty rows: the first counts each bucket's end, the second fills each
	// bucket from its end back. Afterwards POI j's users are
	// byPOI[poiOff[j]:poiOff[j+1]], and user i's POIs are
	// byUser[userOff[i]:userOff[i+1]].
	entries := train.Entries()
	poiOff, userOff := make([]int, J+1), make([]int, I+1)
	for _, e := range entries {
		if poiDirty[e.J] {
			poiOff[e.J]++
		}
		if userDirty[e.I] {
			userOff[e.I]++
		}
	}
	cumulate(poiOff)
	cumulate(userOff)
	byPOI, byUser := make([]int, poiOff[J]), make([]int, userOff[I])
	for _, e := range entries {
		if poiDirty[e.J] {
			poiOff[e.J]--
			byPOI[poiOff[e.J]] = e.I
		}
		if userDirty[e.I] {
			userOff[e.I]--
			byUser[userOff[e.I]] = e.J
		}
	}

	// A POI's visit counts are counted per user, then listed in ascending
	// order by a counting pass over 1…K (cells are unique, so a user visits a
	// POI in at most K time units): the entropy sum is order-sensitive at the
	// ulp level. An unvisited POI has entropy 0, weight 1.
	perUser := make([]int, I)            // visits of the current POI by each user
	ofCount := make([]int, train.DimK+1) // ofCount[c]: users with c visits
	var visits []int
	for j, dirty := range poiDirty {
		if !dirty {
			continue
		}
		users := byPOI[poiOff[j]:poiOff[j+1]]
		for _, u := range users {
			perUser[u]++
		}
		most := 0
		for _, u := range users {
			if c := perUser[u]; c > 0 { // a user's first cell here; the reset skips the rest
				ofCount[c]++
				most = max(most, c)
				perUser[u] = 0
			}
		}
		visits = visits[:0]
		for c := 1; c <= most; c++ {
			for ; ofCount[c] > 0; ofCount[c]-- {
				visits = append(visits, c)
			}
		}
		side.EntropyW[j] = geo.EntropyWeight(geo.LocationEntropy(visits))
	}

	// Own and friend sets are gathered as bits over the POIs and drained in
	// ascending order, which drops repeats and sorts in one pass.
	set := make(poiBits, (J+63)/64)
	var row []int
	for i, dirty := range userDirty {
		if dirty {
			for _, j := range byUser[userOff[i]:userOff[i+1]] {
				set.add(j)
			}
			row = set.drain(row)
			side.OwnPOIs[i] = exactCopy(row)
		}
	}

	// A user's friend set changes when any neighbour's own set changed, or
	// when the user itself is new (its edges are new): the dirty users and
	// their neighbours. Without old every user is dirty already.
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
		for _, f := range social.Neighbors(v) {
			for _, j := range side.OwnPOIs[f] {
				set.add(j)
			}
		}
		row = set.drain(row)
		side.FriendPOIs[v] = exactCopy(row)
	}
	return side, nil
}

// cumulate turns per-bucket counts into running totals in place, so that
// off[k] is the end of bucket k.
func cumulate(off []int) {
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
}

// poiBits is a set of POIs, one bit each.
type poiBits []uint64

func (s poiBits) add(j int) { s[j>>6] |= 1 << (j & 63) }

// drain lists the members in ascending order into dst[:0] and empties the
// set, reading every word once.
func (s poiBits) drain(dst []int) []int {
	dst = dst[:0]
	for w, b := range s {
		for ; b != 0; b &= b - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(b))
		}
		s[w] = 0
	}
	return dst
}

// exactCopy returns a row of its own holding lst; an empty lst gives [], not
// nil.
func exactCopy(lst []int) []int {
	row := make([]int, len(lst))
	copy(row, lst)
	return row
}
