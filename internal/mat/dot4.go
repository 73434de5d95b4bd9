package mat

import "fmt"

// Elem covers the factor-slab element types: float64 factors and the compact
// float32/int8 storage modes (core.StorageFloat32 / core.StorageInt8).
// Non-float64 elements are widened to float64 inside the kernels, so a
// compact scoring path differs from the float64 one only by the storage
// rounding of the row operand, never by summation order.
type Elem interface {
	~float64 | ~float32 | ~int8
}

// DotWiden is the mixed-precision inner product of the compact storage modes
// and the single-vector counterpart of Dot4: a float64 weight vector against
// a float64, float32 or int8 row, accumulating in float64 with DotUnrolled's
// algorithm (four-lane unroll, tail into lane 0, reduction (s0+s1)+(s2+s3)),
// so DotWiden[float64] is bit-identical to DotUnrolled. int8 callers multiply
// the result by the row's dequantization scale; factoring the scale out of
// the loop keeps the kernel a pure dot product.
func DotWiden[E Elem](a []float64, b []E) float64 {
	n := len(a)
	if n != len(b) {
		panic(fmt.Sprintf("mat: DotWiden length mismatch %d vs %d", n, len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * float64(b[i])
		s1 += a[i+1] * float64(b[i+1])
		s2 += a[i+2] * float64(b[i+2])
		s3 += a[i+3] * float64(b[i+3])
	}
	for ; i < n; i++ {
		s0 += a[i] * float64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot4 computes four inner products against one shared row, loading each row
// element once — the register-reuse win that only a batched caller can have:
// four separate DotWiden calls reload the row three times over and pay the
// call overhead four times. Lane k accumulates wk[i]·row[i] in exactly
// DotWiden's order, so dk is bit-identical to DotWiden(wk, row).
func Dot4[E Elem](w0, w1, w2, w3 []float64, row []E) (d0, d1, d2, d3 float64) {
	n := len(row)
	if len(w0) != n || len(w1) != n || len(w2) != n || len(w3) != n {
		panic(fmt.Sprintf("mat: Dot4 length mismatch %d/%d/%d/%d vs %d",
			len(w0), len(w1), len(w2), len(w3), n))
	}
	var a0, a1, a2, a3 float64
	var b0, b1, b2, b3 float64
	var c0, c1, c2, c3 float64
	var e0, e1, e2, e3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := float64(row[i]), float64(row[i+1]), float64(row[i+2]), float64(row[i+3])
		a0 += w0[i] * r0
		a1 += w0[i+1] * r1
		a2 += w0[i+2] * r2
		a3 += w0[i+3] * r3
		b0 += w1[i] * r0
		b1 += w1[i+1] * r1
		b2 += w1[i+2] * r2
		b3 += w1[i+3] * r3
		c0 += w2[i] * r0
		c1 += w2[i+1] * r1
		c2 += w2[i+2] * r2
		c3 += w2[i+3] * r3
		e0 += w3[i] * r0
		e1 += w3[i+1] * r1
		e2 += w3[i+2] * r2
		e3 += w3[i+3] * r3
	}
	for ; i < n; i++ {
		r := float64(row[i])
		a0 += w0[i] * r
		b0 += w1[i] * r
		c0 += w2[i] * r
		e0 += w3[i] * r
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3), (c0 + c1) + (c2 + c3), (e0 + e1) + (e2 + e3)
}
