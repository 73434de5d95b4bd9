package geo

import "fmt"

// Grown returns the distances over pts, which must be the full grown point
// list whose first dm.N entries are the points dm was built from. Only the
// new-vs-all pairs are measured, to extend d_max, so growing by Δ POIs costs
// O(n·Δ) time. A strict-greater maximum does not depend on the order pairs are
// visited in, so the result equals a full rebuild bit for bit. The receiver
// is not modified — published snapshots may keep referencing it.
func (dm *DistanceMatrix) Grown(pts []Point) *DistanceMatrix {
	n := len(pts)
	if n < dm.N {
		panic(fmt.Sprintf("geo: Grown with %d points, matrix already covers %d", n, dm.N))
	}
	if n == dm.N {
		return dm
	}
	out := &DistanceMatrix{N: n, Pts: append([]Point(nil), pts...), DMax: dm.DMax}
	for i := dm.N; i < n; i++ {
		for j := 0; j < i; j++ {
			if d := Haversine(pts[i], pts[j]); d > out.DMax {
				out.DMax = d
			}
		}
	}
	return out
}

// NearestIndices returns the up-to-k nearest POIs to j (excluding j itself),
// closest first, ties broken by lower index. Growth warm-starts a new POI's
// factor row from these geographic neighbours.
func (dm *DistanceMatrix) NearestIndices(j, k int) []int {
	type cand struct {
		idx int
		d   float64
	}
	best := make([]cand, 0, k)
	for i := 0; i < dm.N; i++ {
		if i == j {
			continue
		}
		d := dm.At(j, i)
		pos := len(best)
		for pos > 0 && (d < best[pos-1].d || (d == best[pos-1].d && i < best[pos-1].idx)) {
			pos--
		}
		if pos >= k {
			continue
		}
		if len(best) < k {
			best = append(best, cand{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = cand{i, d}
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.idx
	}
	return out
}
