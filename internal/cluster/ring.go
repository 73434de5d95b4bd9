// Package cluster implements the sharded, replicated serving tier: a
// consistent-hash ring partitioning users over shards, a gateway that routes
// requests to the owning shard (failing over to replicas), and a replicator
// that keeps replicas on the primary's snapshot generation via checksummed
// snapshot shipping.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per shard. At v vnodes the relative
// spread of a shard's keyspace share is ~1/sqrt(v); 2048 keeps every shard
// within a few percent of uniform even at 64 shards, for a ring of at most
// 64×2048 = 131072 points (~2 MB) built once at startup.
const DefaultVnodes = 2048

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard int32
}

// Ring is an immutable consistent-hash ring mapping user ids to shards.
// Adding or removing one shard remaps only the keyspace adjacent to its
// virtual nodes — about 1/N of users — instead of reshuffling everything the
// way `user % N` would.
type Ring struct {
	shards []string
	points []ringPoint
	vnodes int
}

// splitmix64 is the finalizer from the SplitMix64 PRNG: a cheap, well-mixed
// bijection on uint64. User ids are small dense integers, so they need this
// avalanche before landing on the circle; vnode labels get it on top of FNV
// for the same reason.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pointHash places virtual node v of the named shard on the circle.
func pointHash(name string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(v)))
	return splitmix64(h.Sum64())
}

// keyHash places a user id on the circle.
func keyHash(user int) uint64 { return splitmix64(uint64(user)) }

// NewRing builds a ring over the given shard names. vnodes <= 0 selects
// DefaultVnodes. Shard names must be unique and non-empty; order does not
// affect ownership (placement depends only on names), so configurations
// listing the same shards in different orders agree.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(shards))
	for _, name := range shards {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty shard name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", name)
		}
		seen[name] = true
	}
	r := &Ring{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, 0, len(shards)*vnodes),
		vnodes: vnodes,
	}
	for si, name := range r.shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(name, v), shard: int32(si)})
		}
	}
	// Ties broken by shard name so ownership is independent of listing order.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return r.shards[a.shard] < r.shards[b.shard]
	})
	return r, nil
}

// Shards returns the shard names in their configured order.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// OwnerIndex returns the index (into the configured shard list) of the shard
// owning user: the shard of the first ring point at or clockwise past the
// user's hash.
func (r *Ring) OwnerIndex(user int) int {
	h := keyHash(user)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past 2^64 to the first point
	}
	return int(r.points[i].shard)
}

// Owner returns the name of the shard owning user.
func (r *Ring) Owner(user int) string { return r.shards[r.OwnerIndex(user)] }

// Owns returns the ownership predicate for one shard, in the shape
// serve.Options.Owns expects.
func (r *Ring) Owns(shard string) func(user int) bool {
	idx := -1
	for i, name := range r.shards {
		if name == shard {
			idx = i
			break
		}
	}
	if idx < 0 {
		return func(int) bool { return false }
	}
	return func(user int) bool { return r.OwnerIndex(user) == idx }
}
