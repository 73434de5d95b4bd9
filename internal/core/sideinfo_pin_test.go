package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"tcss/internal/geo"
	"tcss/internal/graph"
	"tcss/internal/lbsn"
	"tcss/internal/tensor"
)

// TestSideInfoPinned pins, bit for bit, what the side-information fold
// returns: every entropy weight, every own and friend row, and whether each
// row is nil (shipped snapshots encode an empty row as [], not null). A
// rewrite of the fold must leave every digest untouched.
func TestSideInfoPinned(t *testing.T) {
	want := map[string]string{
		"full":     "dc77abd6a7b24dfa15a2108c919fccb35ae211fec357c0ab309ab210a8e00e6f",
		"in-range": "1d7e5a1c7832ccaddaf60ec410a0677aede2d9c663168998ad9befbb964d3584",
		"growth":   "42e52fe36fc6de74219301d0a0ff9e24d7056eec3bb9d3ca556245814b5c052c",
		"decay":    "b7afcf69015f42209bee79264ddee78b30f433d7a017d5e41fc026636c492d8e",
		"sparse":   "430bd760ee40895d922fd2c95e0100a07cfd6954ba8070f4a8d0208a28ce7966",
	}
	got := map[string]string{}
	fold := func(name string, old *SideInfo, social *graph.Graph, dist *geo.DistanceMatrix, train *tensor.COO, touched []tensor.Entry) *SideInfo {
		t.Helper()
		side, err := GrowSideInfo(old, social, dist, train, touched)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = sideDigest(side)
		return side
	}

	// node-write's shape: the gowalla preset at seed 1, monthly, split 80/20.
	ds := lbsn.MustPreset("gowalla", 1)
	train, _ := ds.Tensor(lbsn.Month).Split(0.8, rand.New(rand.NewSource(1)))
	dist := ds.Distances()
	I, J, K := train.DimI, train.DimJ, train.DimK
	base := fold("full", nil, ds.Social, dist, train, nil)

	// In range, the touched list out of order and with a repeat.
	inRange := train.Clone()
	touched := []tensor.Entry{
		{I: 17, J: 500, K: 3, Val: 1}, {I: 2, J: 9, K: 0, Val: 1},
		{I: 17, J: 500, K: 3, Val: 1}, {I: I - 1, J: 0, K: K - 1, Val: 1},
		{I: 2, J: J - 1, K: 1, Val: 1},
	}
	for _, e := range touched {
		inRange.Set(e.I, e.J, e.K, e.Val)
	}
	if inRange.NNZ() != train.NNZ()+4 {
		t.Fatalf("in-range cells add %d cells, want 4", inRange.NNZ()-train.NNZ())
	}
	fold("in-range", base, ds.Social, dist, inRange, touched)

	// Growth: two new users with edges (one to the other) and one new POI.
	social := ds.Social.Clone()
	first := social.AddVertices(2)
	social.AddEdge(first, 3)
	social.AddEdge(first, 40)
	social.AddEdge(first+1, first)
	grownDist := dist.Grown(append(ds.Locations(), geo.Point{Lat: dist.Pts[0].Lat + 0.01, Lon: dist.Pts[0].Lon}))
	grown := train.Clone()
	grown.Grow(I+2, J+1, K)
	growth := []tensor.Entry{{I: first, J: J, K: 0, Val: 1}, {I: 40, J: J, K: 2, Val: 1}, {I: first + 1, J: 5, K: 1, Val: 1}}
	for _, e := range growth {
		grown.Set(e.I, e.J, e.K, e.Val)
	}
	fold("growth", base, social, grownDist, grown, growth)

	// Decay drops every cell lowered below the floor: every seventh entry.
	decayed := train.Clone()
	for n, e := range train.Entries() {
		if n%7 == 0 {
			decayed.Set(e.I, e.J, e.K, 0.5)
		}
	}
	if dropped := decayed.DecayScale(0.9, 0.6); dropped == 0 {
		t.Fatal("decay dropped no cell")
	}
	fold("decay", nil, ds.Social, dist, decayed, nil)

	// POI 3 unvisited, user 4 friendless, user 5 with no visits and
	// friends with no visits.
	small := graph.New(7)
	small.AddEdge(0, 1)
	small.AddEdge(1, 2)
	small.AddEdge(0, 3)
	small.AddEdge(5, 6)
	pts := make([]geo.Point, 5)
	for j := range pts {
		pts[j] = geo.Point{Lat: 30 + 0.02*float64(j), Lon: -97}
	}
	x := tensor.NewCOO(7, 5, 3)
	for _, c := range [][3]int{{0, 0, 0}, {0, 0, 1}, {1, 0, 2}, {1, 1, 0}, {2, 4, 1}, {3, 2, 2}, {4, 1, 0}, {4, 2, 1}, {0, 4, 2}} {
		x.Set(c[0], c[1], c[2], 1)
	}
	fold("sparse", nil, small, geo.NewDistanceMatrix(pts), x, nil)

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
}

// sideDigest hashes a fold's entropy-weight bits and every own and friend
// row, each row preceded by a nil marker and its length.
func sideDigest(s *SideInfo) string {
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, w := range s.EntropyW {
		word(math.Float64bits(w))
	}
	for _, rows := range [][][]int{s.OwnPOIs, s.FriendPOIs} {
		word(uint64(len(rows)))
		for _, row := range rows {
			if row == nil {
				h.Write([]byte{0})
			} else {
				h.Write([]byte{1})
			}
			word(uint64(len(row)))
			for _, j := range row {
				word(uint64(j))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
