package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoint(rng *rand.Rand) Point {
	return Point{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
}

func TestHaversineKnownDistance(t *testing.T) {
	// Paris to London is roughly 344 km.
	paris := Point{Lat: 48.8566, Lon: 2.3522}
	london := Point{Lat: 51.5074, Lon: -0.1278}
	d := Haversine(paris, london)
	if d < 330 || d > 355 {
		t.Fatalf("Paris-London = %g km, want ≈344", d)
	}
}

func TestHaversineZeroIdentity(t *testing.T) {
	p := Point{Lat: 33.5, Lon: -86.8}
	if got := Haversine(p, p); got != 0 {
		t.Fatalf("d(p,p) = %g, want 0", got)
	}
}

func TestHaversineProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randPoint(rng), randPoint(rng), randPoint(rng)
		dab, dba := Haversine(a, b), Haversine(b, a)
		if math.Float64bits(dab) != math.Float64bits(dba) {
			return false // symmetry, to the bit
		}
		if dab < 0 {
			return false // non-negativity
		}
		// Triangle inequality with numerical slack.
		return Haversine(a, c) <= dab+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Bitwise symmetry lets a distance be computed from either end: math.Sin
	// is exactly odd, its result is squared, and the cosine product commutes.
	// 10⁶ more pairs, alternately within one city (a 0.2° box) and global.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 1_000_000; n++ {
		a, b := randPoint(rng), randPoint(rng)
		if n%2 == 0 {
			b = Point{Lat: a.Lat + 0.2*rng.Float64() - 0.1, Lon: a.Lon + 0.2*rng.Float64() - 0.1}
		}
		if dab, dba := Haversine(a, b), Haversine(b, a); math.Float64bits(dab) != math.Float64bits(dba) {
			t.Fatalf("Haversine(%v, %v) = %v but Haversine(%v, %v) = %v", a, b, dab, b, a, dba)
		}
	}
}

func TestHaversineAntipodal(t *testing.T) {
	// Antipodal points are half the circumference apart: π·R ≈ 20015 km.
	d := Haversine(Point{Lat: 0, Lon: 0}, Point{Lat: 0, Lon: 180})
	want := math.Pi * EarthRadiusKm
	if math.Abs(d-want) > 1 {
		t.Fatalf("antipodal distance = %g, want %g", d, want)
	}
}

// contains reports whether p lies inside the box (inclusive).
func contains(b BoundingBox, p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

func TestBoundingBox(t *testing.T) {
	b := BoundingBox{MinLat: 30, MaxLat: 35, MinLon: -90, MaxLon: -85}
	if !contains(b, Point{Lat: 32, Lon: -87}) {
		t.Fatal("point inside box reported outside")
	}
	if contains(b, Point{Lat: 36, Lon: -87}) {
		t.Fatal("point outside box reported inside")
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 50; n++ {
		if p := b.RandomPoint(rng); !contains(b, p) {
			t.Fatalf("RandomPoint %v escaped the box", p)
		}
	}
}

func TestDistanceMatrix(t *testing.T) {
	pts := []Point{
		{Lat: 0, Lon: 0},
		{Lat: 0, Lon: 1},
		{Lat: 1, Lon: 0},
	}
	dm := NewDistanceMatrix(pts)
	if dm.At(0, 0) != 0 {
		t.Fatal("diagonal must be zero")
	}
	if math.Abs(dm.At(0, 1)-dm.At(1, 0)) > 1e-12 {
		t.Fatal("distance matrix must be symmetric")
	}
	if math.Abs(dm.At(0, 1)-Haversine(pts[0], pts[1])) > 1e-12 {
		t.Fatal("matrix entry must equal Haversine")
	}
	var want float64
	for i := range pts {
		for j := range pts {
			if dm.At(i, j) > want {
				want = dm.At(i, j)
			}
		}
	}
	if dm.DMax != want {
		t.Fatalf("DMax = %g, want %g", dm.DMax, want)
	}
}

func TestNearest(t *testing.T) {
	pts := []Point{
		{Lat: 0, Lon: 0},
		{Lat: 0, Lon: 0.1},
		{Lat: 0, Lon: 5},
	}
	dm := NewDistanceMatrix(pts)
	idx, d := dm.Nearest(0, []int{1, 2})
	if idx != 1 {
		t.Fatalf("Nearest = %d, want 1", idx)
	}
	if math.Abs(d-dm.At(0, 1)) > 1e-12 {
		t.Fatalf("Nearest distance = %g", d)
	}
}

func TestLocationEntropy(t *testing.T) {
	// Single visitor: entropy 0.
	if got := LocationEntropy([]int{7}); got != 0 {
		t.Fatalf("single-visitor entropy = %g, want 0", got)
	}
	// Even split over n visitors: entropy log(n).
	if got, want := LocationEntropy([]int{3, 3, 3, 3}), math.Log(4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("even entropy = %g, want %g", got, want)
	}
	// No visits at all.
	if got := LocationEntropy(nil); got != 0 {
		t.Fatalf("empty entropy = %g, want 0", got)
	}
}

func TestLocationEntropyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		visits := make([]int, n)
		var visitors int
		for i := range visits {
			visits[i] = rng.Intn(5)
			if visits[i] > 0 {
				visitors++
			}
		}
		h := LocationEntropy(visits)
		if h < 0 {
			return false
		}
		if visitors > 0 && h > math.Log(float64(visitors))+1e-12 {
			return false // entropy bounded by log of visitor count
		}
		// Scaling all counts by a constant leaves entropy unchanged.
		scaled := make([]int, n)
		for i, v := range visits {
			scaled[i] = 3 * v
		}
		return math.Abs(LocationEntropy(scaled)-h) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyWeightMonotone(t *testing.T) {
	if EntropyWeight(0) != 1 {
		t.Fatal("zero entropy must give weight 1")
	}
	if EntropyWeight(1) >= EntropyWeight(0.5) {
		t.Fatal("weight must decrease with entropy")
	}
}

func TestCentroidAndRadius(t *testing.T) {
	pts := []Point{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 2}}
	c := Centroid(pts)
	if c.Lat != 0 || c.Lon != 1 {
		t.Fatalf("Centroid = %v", c)
	}
	r := RadiusOfGyration(pts)
	want := Haversine(Point{Lat: 0, Lon: 0}, c)
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("RadiusOfGyration = %g, want %g", r, want)
	}
	if RadiusOfGyration(nil) != 0 {
		t.Fatal("empty radius must be 0")
	}
}

func TestMeanPairwiseDistance(t *testing.T) {
	pts := []Point{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 1}, {Lat: 0, Lon: 2}}
	got := MeanPairwiseDistance(pts)
	want := (Haversine(pts[0], pts[1]) + Haversine(pts[0], pts[2]) + Haversine(pts[1], pts[2])) / 3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MeanPairwiseDistance = %g, want %g", got, want)
	}
	if MeanPairwiseDistance(pts[:1]) != 0 {
		t.Fatal("single point must give 0")
	}
}

func TestJitterStaysClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := Point{Lat: 40, Lon: -75}
	q := Jitter(p, 0.01, rng)
	if Haversine(p, q) > 10 {
		t.Fatalf("jitter moved the point %g km, want small", Haversine(p, q))
	}
}
