package core

import (
	"fmt"
	"slices"
	"sort"

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

	// One pass over the training entries collects the inputs of exactly the
	// dirty rows: per-POI visit multiplicities for entropy, per-user POI sets
	// for the own lists.
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
		// Map iteration order is randomized per process; the entropy sum is
		// order-sensitive at the ulp level, so sort for reproducible models.
		// An unvisited POI has entropy 0, weight 1.
		sort.Ints(visits)
		side.EntropyW[j] = geo.EntropyWeight(geo.LocationEntropy(visits))
	}
	for i, dirty := range userDirty {
		if dirty {
			side.OwnPOIs[i] = sortedKeys(ownSets[i])
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
		set := make(map[int]struct{})
		for _, f := range social.Neighbors(v) {
			for _, j := range side.OwnPOIs[f] {
				set[j] = struct{}{}
			}
		}
		side.FriendPOIs[v] = sortedKeys(set)
	}
	return side, nil
}

// sortedKeys lists a POI set in ascending order; an empty set gives [], not
// nil.
func sortedKeys(set map[int]struct{}) []int {
	lst := make([]int, 0, len(set))
	for j := range set {
		lst = append(lst, j)
	}
	sort.Ints(lst)
	return lst
}
