package geo

import (
	"math"
	"math/rand"
	"testing"
)

// denseDistances is the dense n×n fill NewDistanceMatrix made while it held
// an array: Haversine(small, large) mirrored into both halves, and d_max as
// the strict-greater maximum over the upper triangle. It is the bit-for-bit
// reference for the points-backed distances.
func denseDistances(pts []Point) (d []float64, dmax float64) {
	n := len(pts)
	d = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := Haversine(pts[i], pts[j])
			d[i*n+j] = v
			d[j*n+i] = v
			if v > dmax {
				dmax = v
			}
		}
	}
	return d, dmax
}

// sameAsDense fails unless At, Row and DMax of dm equal the dense reference
// over pts bit for bit.
func sameAsDense(t *testing.T, name string, dm *DistanceMatrix, pts []Point) {
	t.Helper()
	want, wantMax := denseDistances(pts)
	n := len(pts)
	if dm.N != n || math.Float64bits(dm.DMax) != math.Float64bits(wantMax) {
		t.Fatalf("%s: N = %d, DMax = %v; want %d, %v", name, dm.N, dm.DMax, n, wantMax)
	}
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		dm.Row(i, row)
		for j, w := range want[i*n : (i+1)*n] {
			if math.Float64bits(dm.At(i, j)) != math.Float64bits(w) || math.Float64bits(row[j]) != math.Float64bits(w) {
				t.Fatalf("%s: At(%d,%d) = %v, Row = %v, dense = %v", name, i, j, dm.At(i, j), row[j], w)
			}
		}
	}
}

// TestDistanceMatrixGrown reads every distance of seeded point sets, built at
// once and grown, against the dense reference: 12 points in a 10° box grown
// from 8, and 300 points within one city (a 0.2° box) or over the globe grown
// from 150 in two steps.
func TestDistanceMatrixGrown(t *testing.T) {
	for _, tc := range []struct {
		name  string
		box   BoundingBox
		n     int
		steps []int // the prefixes built, then grown through, before all n
	}{
		{"region", BoundingBox{MinLat: 30, MaxLat: 40, MinLon: -100, MaxLon: -90}, 12, []int{8}},
		{"city", BoundingBox{MinLat: 38.8, MaxLat: 39, MinLon: -77.2, MaxLon: -77}, 300, []int{150, 290}},
		{"global", BoundingBox{MinLat: -80, MaxLat: 80, MinLon: -180, MaxLon: 180}, 300, []int{150, 290}},
	} {
		rng := rand.New(rand.NewSource(5))
		pts := make([]Point, tc.n)
		for i := range pts {
			pts[i] = tc.box.RandomPoint(rng)
		}
		sameAsDense(t, tc.name, NewDistanceMatrix(pts), pts)
		base := NewDistanceMatrix(pts[:tc.steps[0]])
		grown := base
		for _, n := range tc.steps[1:] {
			grown = grown.Grown(pts[:n])
		}
		grown = grown.Grown(pts)
		sameAsDense(t, tc.name+" grown", grown, pts)
		sameAsDense(t, tc.name+" receiver", base, pts[:tc.steps[0]])
		if same := grown.Grown(pts); same != grown {
			t.Errorf("%s: no-op Grown should return the receiver", tc.name)
		}
	}
}

func TestNearestIndices(t *testing.T) {
	// Collinear points at 0, 1, 2, 5, 9 degrees longitude.
	lons := []float64{0, 1, 2, 5, 9}
	pts := make([]Point, len(lons))
	for i, l := range lons {
		pts[i] = Point{Lat: 0, Lon: l}
	}
	dm := NewDistanceMatrix(pts)
	got := dm.NearestIndices(3, 3) // POI at lon 5: nearest are 2 (Δ3), 1 (Δ4), 4 (Δ4)
	want := []int{2, 1, 4}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("NearestIndices = %v, want %v", got, want)
	}
	if all := dm.NearestIndices(0, 10); len(all) != 4 {
		t.Errorf("k beyond n returned %v", all)
	}
}
