//go:build !amd64 || purego

package mat

// dotRowsAccel has no assembly body in this build: every row takes
// dotRowsGo.
func dotRowsAccel[E Elem](dst, w []float64, rows []E) int { return 0 }
