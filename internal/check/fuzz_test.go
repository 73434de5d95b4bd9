// Native Go fuzz targets asserting the repository's algebraic invariants on
// randomized inputs. `go test ./internal/check` runs each target over its
// seed corpus; `make fuzz` (or `go test -fuzz <Target> ./internal/check`)
// explores further. Every target derives its structures deterministically
// from the fuzzed bytes via splitmix64, so failures replay exactly.
package check

import (
	"math"
	"sort"
	"testing"

	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/graph"
	"tcss/internal/tensor"
)

// fuzzRNG is a tiny deterministic generator seeded from fuzz input.
type fuzzRNG uint64

func (r *fuzzRNG) next() uint64 {
	*r = fuzzRNG(splitmix64(uint64(*r) + 0x9E3779B97F4A7C15))
	return uint64(*r)
}

func (r *fuzzRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *fuzzRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// FuzzCOOInvariants drives a random Set/Add/Scale script against a plain map
// reference and asserts the tensor agrees cell-for-cell, that NNZ matches the
// reference support exactly (Set-to-zero must delete), and that FrobNormSq
// matches the reference sum.
func FuzzCOOInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), uint8(2), uint16(12))
	f.Add(uint64(99), uint8(1), uint8(1), uint8(1), uint16(3))
	f.Add(uint64(7), uint8(6), uint8(5), uint8(4), uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, di, dj, dk uint8, ops uint16) {
		I, J, K := int(di%8)+1, int(dj%8)+1, int(dk%8)+1
		n := int(ops % 256)
		rng := fuzzRNG(seed)
		x := tensor.NewCOO(I, J, K)
		ref := map[[3]int]float64{}
		for op := 0; op < n; op++ {
			i, j, k := rng.intn(I), rng.intn(J), rng.intn(K)
			v := math.Round(rng.float()*8-4) / 2 // small half-integers incl. 0
			switch rng.intn(3) {
			case 0:
				x.Set(i, j, k, v)
				if v == 0 {
					delete(ref, [3]int{i, j, k})
				} else {
					ref[[3]int{i, j, k}] = v
				}
			case 1:
				x.Add(i, j, k, v)
				if nv := ref[[3]int{i, j, k}] + v; nv == 0 {
					delete(ref, [3]int{i, j, k})
				} else {
					ref[[3]int{i, j, k}] = nv
				}
			case 2:
				s := math.Round(rng.float()*4-2)/2 + 1 // in {0, ±0.5, …}, usually ≠ 1
				x.Scale(s)
				for key, v := range ref {
					if nv := v * s; nv == 0 {
						delete(ref, key)
					} else {
						ref[key] = nv
					}
				}
			}
		}
		if x.NNZ() != len(ref) {
			t.Fatalf("NNZ %d, reference support %d", x.NNZ(), len(ref))
		}
		var wantFrob float64
		for key, v := range ref {
			if got := x.At(key[0], key[1], key[2]); got != v {
				t.Fatalf("At(%v) = %g, reference %g", key, got, v)
			}
			wantFrob += v * v
		}
		for _, e := range x.Entries() {
			if ref[[3]int{e.I, e.J, e.K}] != e.Val {
				t.Fatalf("entry %v not in reference", e)
			}
			if !x.Has(e.I, e.J, e.K) {
				t.Fatalf("Has(%d,%d,%d) false for stored entry", e.I, e.J, e.K)
			}
		}
		if got := x.FrobNormSq(); math.Abs(got-wantFrob) > 1e-9*(1+wantFrob) {
			t.Fatalf("FrobNormSq %g, reference %g", got, wantFrob)
		}
	})
}

// fuzzModel builds a model with bounded parameters derived from the seed.
func fuzzModel(seed uint64, i, j, k, rank int) *core.Model {
	rng := fuzzRNG(seed)
	m := core.NewModel(i, j, k, rank)
	fill := func(data []float64) {
		for idx := range data {
			data[idx] = rng.float()*2 - 1
		}
	}
	fill(m.U1.Data)
	fill(m.U2.Data)
	fill(m.U3.Data)
	fill(m.H)
	return m
}

// FuzzScoreSlabVsPredict asserts the scoring identities on random models:
// the slab GEMM kernel and the candidate gather must agree with pointwise
// Predict, the top-N scan must equal a full sort of the candidate gather, the
// whole-data loss must be identical at any worker count, non-negative, and
// produce finite gradients.
func FuzzScoreSlabVsPredict(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(6), uint8(3), uint8(2))
	f.Add(uint64(42), uint8(2), uint8(9), uint8(4), uint8(5))
	f.Add(uint64(1234), uint8(7), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, di, dj, dk, r uint8) {
		I, J, K := int(di%8)+1, int(dj%8)+1, int(dk%8)+1
		rank := int(r%6) + 1
		m := fuzzModel(seed, I, J, K, rank)

		// ScoreSlab ≡ Predict pointwise (up to GEMM regrouping).
		slab := make([]float64, J*K)
		for i := 0; i < I; i++ {
			m.ScoreSlab(i, slab)
			for j := 0; j < J; j++ {
				for k := 0; k < K; k++ {
					want := m.Predict(i, j, k)
					got := slab[j*K+k]
					if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
						t.Fatalf("ScoreSlab[%d,%d,%d] = %g, Predict = %g", i, j, k, got, want)
					}
				}
			}
		}

		// ScoreCandidates ≡ Predict on a random candidate subset.
		rng := fuzzRNG(seed ^ 0xABCD)
		js := make([]int, rng.intn(J)+1)
		for idx := range js {
			js[idx] = rng.intn(J)
		}
		out := make([]float64, len(js))
		i, k := rng.intn(I), rng.intn(K)
		m.ScoreCandidates(i, k, js, out)
		for idx, j := range js {
			want := m.Predict(i, j, k)
			if math.Abs(out[idx]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("ScoreCandidates[%d] = %g, Predict(%d,%d,%d) = %g", idx, out[idx], i, j, k, want)
			}
		}

		// TopNScratch ≡ "score every POI, sort by (score desc, id asc), drop
		// the skipped", bit for bit, in every storage mode: the threshold-first
		// scan may never change which POIs are returned or their scores.
		var skip []int
		for j := 0; j < J; j++ {
			if rng.intn(3) == 0 {
				skip = append(skip, j)
			}
		}
		n := rng.intn(J+2) + 1
		everyPOI := make([]int, J)
		for j := range everyPOI {
			everyPOI[j] = j
		}
		for _, mode := range []core.StorageMode{core.StorageFloat64, core.StorageFloat32, core.StorageInt8} {
			cm, err := m.ToStorage(mode)
			if err != nil {
				t.Fatal(err)
			}
			scores := make([]float64, J)
			cm.ScoreCandidates(i, k, everyPOI, scores)
			var want []core.Recommendation
			for j, p := 0, 0; j < J; j++ {
				if p < len(skip) && skip[p] == j {
					p++
					continue
				}
				want = append(want, core.Recommendation{POI: j, Score: scores[j]})
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].Score > want[b].Score })
			want = want[:min(n, len(want))]
			got := cm.TopNScratch(i, k, n, skip, core.NewRecScratch(cm))
			if len(got) != len(want) {
				t.Fatalf("%v TopNScratch returned %d POIs, reference %d", mode, len(got), len(want))
			}
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("%v TopNScratch rank %d = %+v, reference %+v", mode, r, got[r], want[r])
				}
			}
		}

		// Whole-data loss: non-negative, worker-count invariant, finite grads.
		x := tensor.NewCOO(I, J, K)
		for n := 0; n < (I*J*K+1)/2; n++ {
			x.Set(rng.intn(I), rng.intn(J), rng.intn(K), 1)
		}
		g := core.NewGrads(m)
		g.Zero()
		serial := m.WholeDataLossWorkers(x, 0.99, 0.01, g, 1)
		if serial < 0 || math.IsNaN(serial) || math.IsInf(serial, 0) {
			t.Fatalf("whole-data loss %g not a finite non-negative value", serial)
		}
		for _, grad := range [][]float64{g.DU1.Data, g.DU2.Data, g.DU3.Data, g.DH} {
			for idx, v := range grad {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite gradient element %d: %g", idx, v)
				}
			}
		}
		for workers := 2; workers <= 4; workers++ {
			g2 := core.NewGrads(m)
			g2.Zero()
			par := m.WholeDataLossWorkers(x, 0.99, 0.01, g2, workers)
			if math.Abs(par-serial) > 1e-9*(1+math.Abs(serial)) {
				t.Fatalf("loss at %d workers %.17g differs from serial %.17g", workers, par, serial)
			}
		}
	})
}

// FuzzHausdorffSymmetry asserts the social head's structural invariants on
// random geometry: the distance matrix is symmetric with zero diagonal, the
// loss is identical at any worker count, finite and non-negative, invariant
// under permuting a user's friend-POI set, and the generalized mean stays
// within [min, max] of the distances it aggregates.
func FuzzHausdorffSymmetry(f *testing.F) {
	f.Add(uint64(3), uint8(5), uint8(6), uint8(2))
	f.Add(uint64(77), uint8(3), uint8(4), uint8(3))
	f.Add(uint64(500), uint8(8), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, du, dp, dk uint8) {
		I, J, K := int(du%8)+2, int(dp%8)+2, int(dk%4)+1
		rng := fuzzRNG(seed)

		pts := make([]geo.Point, J)
		for j := range pts {
			pts[j] = geo.Point{Lat: 20 + 20*rng.float(), Lon: -120 + 40*rng.float()}
		}
		dist := geo.NewDistanceMatrix(pts)
		for a := 0; a < J; a++ {
			if d := dist.At(a, a); d != 0 {
				t.Fatalf("D(%d,%d) = %g, want 0", a, a, d)
			}
			for b := a + 1; b < J; b++ {
				if dist.At(a, b) != dist.At(b, a) {
					t.Fatalf("distance asymmetric at (%d,%d): %g vs %g", a, b, dist.At(a, b), dist.At(b, a))
				}
			}
		}

		social := graph.New(I)
		for u := 0; u < I; u++ {
			social.AddEdge(u, (u+1)%I)
		}
		x := tensor.NewCOO(I, J, K)
		for u := 0; u < I; u++ {
			for n := 0; n < 2; n++ {
				x.Set(u, rng.intn(J), rng.intn(K), 1)
			}
		}
		side, err := core.BuildSideInfo(social, dist, x)
		if err != nil {
			t.Fatalf("side info: %v", err)
		}
		m := core.NewModel(I, J, K, 3)
		mm := PositiveModel(I, J, K, 3, int64(seed%1024))
		copy(m.U1.Data, mm.U1.Data)
		copy(m.U2.Data, mm.U2.Data)
		copy(m.U3.Data, mm.U3.Data)
		copy(m.H, mm.H)

		users := make([]int, I)
		for u := range users {
			users[u] = u
		}
		head := core.NewHausdorff(side.Dist, side.EntropyW, side.FriendPOIs)
		g := core.NewGrads(m)
		g.Zero()
		serial := head.LossWorkers(m, users, g, 1)
		if serial < 0 || math.IsNaN(serial) || math.IsInf(serial, 0) {
			t.Fatalf("Hausdorff loss %g not a finite non-negative value", serial)
		}
		for workers := 2; workers <= 5; workers++ {
			g2 := core.NewGrads(m)
			g2.Zero()
			par := head.LossWorkers(m, users, g2, workers)
			// Sharding regroups the user-sum reduction, so parallel runs match
			// serial to rounding, not bit-for-bit (they ARE bit-stable for a
			// fixed worker count, which the golden runs rely on).
			if math.Abs(par-serial) > 1e-9*(1+math.Abs(serial)) {
				t.Fatalf("loss at %d workers %.17g differs from serial %.17g", workers, par, serial)
			}
		}

		// Permuting a friend-POI set must not change the loss: the head
		// aggregates each set with order-insensitive min/smooth-min reductions
		// over float sums that never reorder (per-POI terms are accumulated in
		// index order inside the head, so reversing the SET listing only is
		// safe to compare exactly after a full re-listing — use a tolerance).
		perm := make([][]int, len(side.FriendPOIs))
		for u := range perm {
			set := append([]int(nil), side.FriendPOIs[u]...)
			for a, b := 0, len(set)-1; a < b; a, b = a+1, b-1 {
				set[a], set[b] = set[b], set[a]
			}
			perm[u] = set
		}
		headP := core.NewHausdorff(side.Dist, side.EntropyW, perm)
		gp := core.NewGrads(m)
		gp.Zero()
		permuted := headP.LossWorkers(m, users, gp, 1)
		if math.Abs(permuted-serial) > 1e-9*(1+math.Abs(serial)) {
			t.Fatalf("loss changed under friend-set permutation: %.17g vs %.17g", permuted, serial)
		}

		// GeneralizedMean must stay within the range of its inputs.
		vals := make([]float64, rng.intn(5)+1)
		lo, hi := math.Inf(1), math.Inf(-1)
		for idx := range vals {
			vals[idx] = 0.1 + rng.float()
			lo = math.Min(lo, vals[idx])
			hi = math.Max(hi, vals[idx])
		}
		gm := core.GeneralizedMean(vals, -1)
		if gm < lo-1e-12 || gm > hi+1e-12 {
			t.Fatalf("GeneralizedMean(%v) = %g outside [%g, %g]", vals, gm, lo, hi)
		}
	})
}
