package mat

import "fmt"

// Elem covers the factor-slab element types: float64 factors and the compact
// float32/int8 storage modes (core.StorageFloat32 / core.StorageInt8).
// Non-float64 elements are widened to float64 inside DotRows, exactly, so a
// compact scoring path differs from the float64 one only by the storage
// rounding of the row operand, never by summation order.
type Elem interface {
	~float64 | ~float32 | ~int8
}

// DotRows sets dst[j] to the inner product of w with row j of rows, where
// rows is a row-major len(dst)×len(w) slab: the one rank-r dot kernel behind
// the top-N scan, the slab product and the candidate scores. Every row is
// summed in one fixed order — four accumulators s0…s3 over the groups of four
// elements, the tail into s0, then (s0+s1)+(s2+s3) — with every product
// rounded on its own (no FMA), so a score does not depend on which body
// computed it or how many rows shared the call. int8 callers multiply the
// result by the row's dequantization scale; keeping the scale out of the
// kernel keeps it a pure dot product.
//
// On amd64 with AVX2 groups of four rows go through an assembly body that
// holds each row's s0…s3 in the four lanes of one register; the remaining
// rows, and every row on other platforms, take dotRowsGo.
func DotRows[E Elem](dst, w []float64, rows []E) {
	if len(rows) != len(dst)*len(w) {
		panic(fmt.Sprintf("mat: DotRows slab length %d, want %d rows × %d", len(rows), len(dst), len(w)))
	}
	done := 0
	if len(dst) >= 4 {
		done = dotRowsAccel(dst, w, rows)
	}
	dotRowsGo(dst[done:], w, rows[done*len(w):])
}

// dotRowsGo is DotRows' reference body. Each product is converted to float64
// explicitly, which forbids the compiler from fusing it into the following
// add.
func dotRowsGo[E Elem](dst, w []float64, rows []E) {
	r := len(w)
	for j := range dst {
		row := rows[j*r : j*r+r : j*r+r]
		var s0, s1, s2, s3 float64
		t := 0
		for ; t+4 <= r; t += 4 {
			s0 += float64(w[t] * float64(row[t]))
			s1 += float64(w[t+1] * float64(row[t+1]))
			s2 += float64(w[t+2] * float64(row[t+2]))
			s3 += float64(w[t+3] * float64(row[t+3]))
		}
		for ; t < r; t++ {
			s0 += float64(w[t] * float64(row[t]))
		}
		dst[j] = (s0 + s1) + (s2 + s3)
	}
}
