//go:build !amd64 || purego

package mat

// The head kernels have no assembly bodies in this build: every POI takes
// the Go reference body.

func slabVisitProbsAccel(p, dpdx, u2, w, u3, scratch []float64, K int) int { return 0 }

func harmonicSumsAccel(p, rowA, rowB, dnA, dnB, invA, invB []float64, scale, floor, floorTerm float64) (done int, sA, sB float64) {
	return 0, 0, 0
}

func harmonicGradAccel(dl []float64, wA float64, dnA, invA []float64, wB float64, dnB, invB []float64, two bool) int {
	return 0
}

func headChainRuleAccel(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, g []float64, ks []int) bool {
	return false
}
