package lbsn

import (
	"fmt"

	"tcss/internal/geo"
)

// Grown returns a copy of the dataset extended to cover at least minUsers
// users and minPOIs POIs, with the listed arrivals wired in: new users join a
// cloned social graph with their friendship edges, new POIs are appended to a
// copied POI list. Id gaps below the minimums (inevitable in a sharded
// deployment where entity ids are assigned globally) are filled with isolated
// placeholder users and centroid-located placeholder POIs; they become real
// entities if check-ins ever arrive for them.
//
// The receiver is not mutated — it may back already-published state. The
// check-in history is shared with the receiver; the cached distances, when
// already computed, are extended to the grown coordinates, with d_max taken
// over the new pairs only (O(n·Δ), see geo.DistanceMatrix.Grown) rather than
// all pairs again.
func (d *Dataset) Grown(newUsers []NewUser, newPOIs []POI, minUsers, minPOIs int) (*Dataset, error) {
	if minUsers < d.NumUsers {
		minUsers = d.NumUsers
	}
	if minPOIs < len(d.POIs) {
		minPOIs = len(d.POIs)
	}
	for _, u := range newUsers {
		if u.ID >= minUsers {
			minUsers = u.ID + 1
		}
	}
	for _, p := range newPOIs {
		if p.ID >= minPOIs {
			minPOIs = p.ID + 1
		}
	}

	social := d.Social.Clone()
	if minUsers > social.N() {
		social.AddVertices(minUsers - social.N())
	}
	for _, u := range newUsers {
		for _, f := range u.Friends {
			if f < 0 || f >= minUsers {
				return nil, fmt.Errorf("lbsn: new user %d befriends out-of-range user %d", u.ID, f)
			}
			if f != u.ID {
				social.AddEdge(u.ID, f)
			}
		}
	}

	pois := make([]POI, minPOIs)
	copy(pois, d.POIs)
	if minPOIs > len(d.POIs) {
		// Placeholder location for gap ids: the centroid of the known world,
		// so distance rows stay finite and sane until the real POI appears.
		centroid := geo.Centroid(d.Locations())
		for j := len(d.POIs); j < minPOIs; j++ {
			pois[j] = POI{ID: j, Loc: centroid}
		}
	}
	for _, p := range newPOIs {
		if p.ID < len(d.POIs) {
			return nil, fmt.Errorf("lbsn: new POI id %d collides with existing POIs", p.ID)
		}
		q := p
		q.ID = p.ID
		pois[p.ID] = q
	}

	out := &Dataset{
		Name:     d.Name,
		NumUsers: minUsers,
		POIs:     pois,
		CheckIns: d.CheckIns,
		Social:   social,
	}
	if d.distCache != nil {
		out.distCache = d.distCache.Grown(out.Locations())
	}
	return out, nil
}
