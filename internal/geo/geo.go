// Package geo provides the geospatial primitives of the reproduction:
// lat/lon points, Haversine great-circle distance (the paper's POI distance
// function), POI distances computed from the coordinates when read together
// with the maximum pairwise distance d_max, location entropy (Eq 11) for
// diversity weighting, and clustering statistics used by the Figure 12 case
// study.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// EarthRadiusKm is the mean Earth radius used by the Haversine formula.
const EarthRadiusKm = 6371.0088

// Point is a geographic location in degrees.
type Point struct {
	Lat, Lon float64
}

// Valid reports whether p is a finite coordinate with |Lat| ≤ 90 and
// |Lon| ≤ 180. Every entry that takes POI coordinates from outside the
// program rejects the rest: two points at ±1.7·10³⁰⁸° are already a NaN
// distance apart.
func (p Point) Valid() bool { return math.Abs(p.Lat) <= 90 && math.Abs(p.Lon) <= 180 }

// Haversine returns the great-circle distance between a and b in kilometers.
// It is symmetric, non-negative, and zero only for identical points.
func Haversine(a, b Point) float64 {
	const deg2rad = math.Pi / 180
	lat1, lat2 := a.Lat*deg2rad, b.Lat*deg2rad
	dLat := (b.Lat - a.Lat) * deg2rad
	dLon := (b.Lon - a.Lon) * deg2rad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// BoundingBox is an axis-aligned lat/lon rectangle.
type BoundingBox struct {
	MinLat, MaxLat, MinLon, MaxLon float64
}

// RandomPoint draws a uniform point inside the box.
func (b BoundingBox) RandomPoint(rng *rand.Rand) Point {
	return Point{
		Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
		Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
	}
}

// Jitter returns p displaced by a Gaussian perturbation with the given
// standard deviation in degrees, used by the LBSN generator to scatter POIs
// around cluster centers.
func Jitter(p Point, sigmaDeg float64, rng *rand.Rand) Point {
	return Point{
		Lat: p.Lat + rng.NormFloat64()*sigmaDeg,
		Lon: p.Lon + rng.NormFloat64()*sigmaDeg,
	}
}

// DistanceMatrix is the Haversine distance between every pair of a POI
// set, held as the points themselves plus the maximum distance d_max, which
// the social Hausdorff loss uses as the penalty for improbable POIs (Eq 10).
// A distance is computed when it is read; a caller that reads whole rows in a
// hot loop caches them itself (Row).
type DistanceMatrix struct {
	N    int
	Pts  []Point
	DMax float64
}

// NewDistanceMatrix copies pts and computes d_max over all pairs, in O(n²)
// time and O(1) extra memory.
func NewDistanceMatrix(pts []Point) *DistanceMatrix {
	n := len(pts)
	if n == 0 {
		panic("geo: NewDistanceMatrix with no points")
	}
	dm := &DistanceMatrix{N: n, Pts: append([]Point(nil), pts...)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := Haversine(pts[i], pts[j]); d > dm.DMax {
				dm.DMax = d
			}
		}
	}
	return dm
}

// At returns the distance between POIs i and j in kilometers: 0 on the
// diagonal, Haversine otherwise. Haversine is bitwise symmetric, so
// At(i, j) and At(j, i) are the same bits.
func (dm *DistanceMatrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return Haversine(dm.Pts[i], dm.Pts[j])
}

// Row fills dst (length N) with the distances from POI j to every POI and
// returns it.
func (dm *DistanceMatrix) Row(j int, dst []float64) []float64 {
	for i := range dst {
		dst[i] = dm.At(j, i)
	}
	return dst
}

// Nearest returns the index in candidates whose distance to j is smallest,
// together with that distance. candidates must be non-empty.
func (dm *DistanceMatrix) Nearest(j int, candidates []int) (int, float64) {
	if len(candidates) == 0 {
		panic("geo: Nearest with no candidates")
	}
	best, bestD := candidates[0], dm.At(j, candidates[0])
	for _, c := range candidates[1:] {
		if d := dm.At(j, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// LocationEntropy computes Eq (11) for one POI: visits[i] is the number of
// check-ins by user i at the POI (only visitors need appear; zeros are
// ignored). The entropy is 0 when a single user accounts for all visits and
// grows to log(#visitors) when visits are spread evenly.
func LocationEntropy(visits []int) float64 {
	var total int
	for _, v := range visits {
		if v < 0 {
			panic(fmt.Sprintf("geo: negative visit count %d", v))
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, v := range visits {
		if v == 0 {
			continue
		}
		p := float64(v) / float64(total)
		h -= p * math.Log(p)
	}
	return h
}

// EntropyWeight returns exp(-entropy), the multiplicative weight e_j the
// paper applies to POI distances so that popular POIs (high entropy) are
// down-weighted and rarely-shared POIs keep weight near 1.
func EntropyWeight(entropy float64) float64 { return math.Exp(-entropy) }

// Centroid returns the arithmetic mean of the points (adequate away from the
// antimeridian, which our city-scale generators never straddle).
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geo: Centroid with no points")
	}
	var c Point
	for _, p := range pts {
		c.Lat += p.Lat
		c.Lon += p.Lon
	}
	c.Lat /= float64(len(pts))
	c.Lon /= float64(len(pts))
	return c
}

// RadiusOfGyration returns the root-mean-square Haversine distance of pts to
// their centroid, in kilometers. Figure 12's case study uses it to show that
// top-100 recommendations cluster more tightly than top-200.
func RadiusOfGyration(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	c := Centroid(pts)
	var s float64
	for _, p := range pts {
		d := Haversine(p, c)
		s += d * d
	}
	return math.Sqrt(s / float64(len(pts)))
}

// MeanPairwiseDistance returns the average Haversine distance over all
// unordered pairs, or 0 for fewer than two points.
func MeanPairwiseDistance(pts []Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += Haversine(pts[i], pts[j])
		}
	}
	return s / float64(n*(n-1)/2)
}
