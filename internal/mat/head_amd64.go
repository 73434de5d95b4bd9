package mat

// The head kernels' assembly bodies (head_amd64.s). Each takes the leading
// multiple of four POIs of its sweep, except headChainRuleAVX2, which takes
// every POI and any rank; pointers are to element 0 and counts are in
// elements.

//go:noescape
func slabVisitProbsAVX2(p, dpdx, u2, w, u3, scratch *float64, K, r, groups int, hi float64)

//go:noescape
func harmonicSumsAVX2(p, rowA, rowB, dnA, dnB, invA, invB *float64, n int, scale, floor, floorTerm float64) (sA, sB float64)

//go:noescape
func harmonicGrad1AVX2(dl, dn, inv *float64, n int, w float64)

//go:noescape
func harmonicGrad2AVX2(dl, dnA, invA, dnB, invB *float64, n int, wA, wB float64)

//go:noescape
func headChainRuleAVX2(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, cv *float64, ks *int, J, K, r int)

// slabVisitProbsAccel runs SlabVisitProbs' groups of four POIs through the
// assembly body and returns how many POIs it took.
func slabVisitProbsAccel(p, dpdx, u2, w, u3, scratch []float64, K int) int {
	n, r := len(p)&^3, len(w)
	if !useAVX2 || n == 0 || K == 0 || r == 0 {
		return 0
	}
	_ = scratch[SlabVisitProbsScratch(K, r)-1]
	_, _, _ = dpdx[n*K-1], u2[n*r-1], u3[K*r-1]
	slabVisitProbsAVX2(&p[0], &dpdx[0], &u2[0], &w[0], &u3[0], &scratch[0], K, r, n/4, clampHi)
	return n
}

// harmonicSumsAccel runs HarmonicSums' leading multiple of four POIs through
// the assembly body. The caller has resliced every row to len(p).
func harmonicSumsAccel(p, rowA, rowB, dnA, dnB, invA, invB []float64, scale, floor, floorTerm float64) (done int, sA, sB float64) {
	n := len(p) &^ 3
	if !useAVX2 || n == 0 {
		return 0, 0, 0
	}
	sA, sB = harmonicSumsAVX2(&p[0], &rowA[0], &rowB[0], &dnA[0], &dnB[0], &invA[0], &invB[0], n, scale, floor, floorTerm)
	return n, sA, sB
}

// harmonicGradAccel runs HarmonicGrad's leading multiple of four POIs
// through the assembly body for one friend POI or two.
func harmonicGradAccel(dl []float64, wA float64, dnA, invA []float64, wB float64, dnB, invB []float64, two bool) int {
	n := len(dl) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	_, _ = dnA[n-1], invA[n-1]
	if !two {
		harmonicGrad1AVX2(&dl[0], &dnA[0], &invA[0], n, wA)
		return n
	}
	_, _ = dnB[n-1], invB[n-1]
	harmonicGrad2AVX2(&dl[0], &dnA[0], &invA[0], &dnB[0], &invB[0], n, wA, wB)
	return n
}

// headChainRuleAccel runs HeadChainRule through the assembly body and
// reports whether it did.
func headChainRuleAccel(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, g []float64, ks []int) bool {
	J, r := len(dLdp), len(h)
	K := len(dpdx) / J
	if !useAVX2 || K == 0 || r == 0 {
		return false
	}
	_, _, _ = du2[J*r-1], u2[J*r-1], dpdx[J*K-1]
	_, _ = hk[K*r-1], u3[K*r-1]
	_, _, _ = q[r-1], u1[r-1], g[K-1]
	_ = ks[K-1]
	headChainRuleAVX2(&du2[0], &hk[0], &q[0], &dLdp[0], &dpdx[0], &u2[0], &u3[0], &h[0], &u1[0], &g[0], &ks[0], J, K, r)
	return true
}
