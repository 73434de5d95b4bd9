//go:build amd64 && !purego

package mat

// adamStepAVX2 steps the first n parameters, a multiple of four; ob1 and
// ob2 are 1−b1 and 1−b2.
//
//go:noescape
func adamStepAVX2(params, grads, m, v *float64, n int, b1, ob1, b2, ob2, c1, c2, lr, eps, wd float64)

// adamStepAccel runs AdamStep's leading multiple of four parameters through
// the assembly body and returns how many it took. The caller has checked
// the lengths.
func adamStepAccel(params, grads, m, v []float64, beta1, beta2, c1, c2, lr, eps, wd float64) int {
	n := len(params) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	adamStepAVX2(&params[0], &grads[0], &m[0], &v[0], n, beta1, 1-beta1, beta2, 1-beta2, c1, c2, lr, eps, wd)
	return n
}
