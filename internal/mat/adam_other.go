//go:build !amd64 || purego

package mat

// adamStepAccel has no assembly body in this build: every parameter takes
// adamStepGo.
func adamStepAccel(params, grads, m, v []float64, beta1, beta2, c1, c2, lr, eps, wd float64) int {
	return 0
}
