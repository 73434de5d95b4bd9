package mat

import "math"

// Dot returns the inner product of a and b. The slices must have equal length;
// a mismatch is a caller bug and panics via the bounds check.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// ScaleVec multiplies every entry of x by alpha in place.
func ScaleVec(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0 if
// either vector is zero. It is used to build the time-factor similarity
// heatmaps of Figures 6 and 7.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// HadamardInto writes the element-wise product of a and b into dst, which
// must have the same length, and returns dst.
func HadamardInto(dst, a, b []float64) []float64 {
	for i, v := range a {
		dst[i] = v * b[i]
	}
	return dst
}
