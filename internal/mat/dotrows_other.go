//go:build !amd64

package mat

// dotRowsAccel has no assembly body on this platform: every row takes
// dotRowsGo.
func dotRowsAccel[E Elem](dst, w []float64, rows []E) int { return 0 }
