package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"tcss/internal/geo"
	"tcss/internal/mat"
)

// TestHausdorffHeadPinned pins the social-Hausdorff head bit for bit: the
// loss and every gradient word of LossWorkers over a table of shapes and
// head settings. The table reaches what the head's kernels must keep exact
// and what the gowalla digest of TestSpectralInitPinned never meets: POI
// counts and ranks that are not multiples of four, friend sets of odd size,
// a friend POI coincident with a POI of probability ≈ 1 (the fMin clamp),
// predictions at and beyond the [0, 1−1e-9] clamp, a NaN prediction, and the
// α ≠ −1 path. One digest per POI count.
func TestHausdorffHeadPinned(t *testing.T) {
	want := map[int]string{
		1:  "ddda56f307795106996850c3e20a1ded08f8e09d63a8121aa748e7b7193fb935",
		3:  "72c25e2a451375eb12df19a1976b08d1124d35ee9f726ed857bd471d11b8f6a6",
		4:  "a793df2fbaace44f9325170b0e69382ef5fa3d150166af56c44b155cd06819c2",
		5:  "57c702dfe31a658c5f9b8e6b24792dd643a988a266634a464c05a139c220f08c",
		37: "6e6389594da3ebfd52ca940b6fadffc28dd02a6206fdf2b8dcb4f88cb1c4bbbb",
	}
	ranks := []int{1, 3, 4, 5, 10, 17}
	for _, J := range []int{1, 3, 4, 5, 37} {
		h := sha256.New()
		for ri, r := range ranks {
			K := 1 + (J+ri)%5
			if ri == 4 {
				K = 12
			}
			hausdorffPinCase(h, J, K, r, int64(100*J+r), false)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[J] {
			t.Errorf("J=%d: digest %s, want %s", J, got, want[J])
		}
	}
}

// TestHausdorffHeadPinnedWide is TestHausdorffHeadPinned over the shapes its
// table leaves out: POI counts of several four-POI tiles with and without a
// remainder (64, 131), slot counts of one, just past twelve and twice twelve
// (1, 13, 24), and ranks of one, train-fit's ten and past sixteen (1, 10,
// 17). Each case ends with an infinite entry in U3, so that one slot's
// predictions are +Inf or −Inf, and NaN on the zero POI row. One digest per
// POI count.
func TestHausdorffHeadPinnedWide(t *testing.T) {
	want := map[int]string{
		64:  "3f517c92accda2e53b828ee56580e2a5692ee8177f25f92323e82c09b472d1ac",
		131: "5926bfec928f9f7a2ab027fa1dac03c5631357d53af7fe642b5b984ceb865945",
	}
	for _, J := range []int{64, 131} {
		h := sha256.New()
		for _, K := range []int{1, 13, 24} {
			for _, r := range []int{1, 10, 17} {
				hausdorffPinCase(h, J, K, r, int64(1000*J+100*K+r), true)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[J] {
			t.Errorf("J=%d: digest %s, want %s", J, got, want[J])
		}
	}
}

// hausdorffPinCase writes the head's outputs on one seeded J-POI, K-slot,
// rank-r model into h, for every combination of entropy weights, α,
// gradients and worker count, and then once more with a NaN prediction.
// With inf it then runs twice more with U3[K/2][r/2] = +Inf: first with the
// last POI row zero (its slot-K/2 prediction is 0·Inf = NaN), then with that
// row's entry at 1, so that only infinite predictions remain.
func hausdorffPinCase(h hash.Hash, J, K, r int, seed int64, inf bool) {
	word := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	rng := rand.New(rand.NewSource(seed))

	// POIs in a ~50 km box; POI 1 sits on POI 0, so a friend set holding
	// POI 1 has distance 0 to POI 0.
	pts := make([]geo.Point, J)
	for j := range pts {
		pts[j] = geo.Point{Lat: 40 + 0.4*rng.Float64(), Lon: -74 + 0.4*rng.Float64()}
	}
	if J > 1 {
		pts[1] = pts[0]
	}
	dist := geo.NewDistanceMatrix(pts)
	entropyW := make([]float64, J)
	for j := range entropyW {
		entropyW[j] = 0.1 + 0.9*rng.Float64()
	}

	// Friend-set sizes 1, 2, 3, 5, 9 (capped at J, distinct POIs), and a
	// user with none. Every set of two or more holds POI 1.
	sizes := []int{1, 2, 3, 5, 9, 0}
	friends := make([][]int, len(sizes))
	for i, n := range sizes {
		n = min(n, J)
		perm := rng.Perm(J)
		if n >= 2 && J > 1 {
			for x, v := range perm {
				if v == 1 {
					perm[0], perm[x] = perm[x], perm[0]
				}
			}
		}
		friends[i] = perm[:n]
	}

	// Factors in [−0.4, 1.2] (U1, U3 and h non-negative) put predictions on
	// both sides of the clamp; POI 0's row is large, so its predictions pass
	// 1 − 1e-9 and p_0 ≈ 1 for every user; the last POI's row is zero, so
	// its predictions are exactly 0.
	m := NewModel(len(sizes), J, K, r)
	for _, u := range [][]float64{m.U1.Data, m.U2.Data, m.U3.Data, m.H} {
		for x := range u {
			u[x] = -0.4 + 1.6*rng.Float64()
		}
	}
	for _, u := range [][]float64{m.U1.Data, m.U3.Data, m.H} {
		for x := range u {
			u[x] = math.Abs(u[x]) + 0.05
		}
	}
	for t := 0; t < r; t++ {
		m.U2.Set(0, t, 40)
	}
	if J > 2 {
		for t := 0; t < r; t++ {
			m.U2.Set(J-1, t, 0)
		}
	}

	users := make([]int, len(sizes))
	for i := range users {
		users[i] = i
	}
	run := func(ent []float64, alpha float64, withGrads bool, workers int) {
		head := NewHausdorff(dist, ent, friends)
		head.Alpha = alpha
		var g *Grads
		if withGrads {
			g = NewGrads(m)
		}
		word(head.LossWorkers(m, users, g, workers))
		if g != nil {
			for _, gm := range []*mat.Matrix{g.DU1, g.DU2, g.DU3} {
				for _, v := range gm.Data {
					word(v)
				}
			}
			for _, v := range g.DH {
				word(v)
			}
		}
	}
	for _, ent := range [][]float64{nil, entropyW} {
		for _, alpha := range []float64{-1, -2} {
			for _, withGrads := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					run(ent, alpha, withGrads, workers)
				}
			}
		}
	}

	// One NaN factor entry of the user with the largest friend set: every
	// prediction of that user is NaN, the others' are not.
	m.U1.Set(4, r/2, math.NaN())
	fmt.Fprintf(h, "nan")
	for _, alpha := range []float64{-1, -2} {
		run(entropyW, alpha, true, 1)
	}
	if !inf {
		return
	}
	m.U1.Set(4, r/2, 0.5)
	m.U3.Set(K/2, r/2, math.Inf(1))
	fmt.Fprintf(h, "inf")
	run(entropyW, -1, true, 1)
	run(nil, -2, true, 2)
	m.U2.Set(J-1, r/2, 1)
	run(entropyW, -1, true, 1)
	run(nil, -2, true, 2)
}
