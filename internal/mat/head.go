package mat

// The four hot sweeps of the social-Hausdorff head (core.Hausdorff.userLoss,
// Eq 10–13), one kernel each: the slab with its visit probabilities, the
// term-2 forward and gradient sweeps, and the chain rule. Like DotRows, each
// has a Go reference body, which runs on every platform without the
// assembly, on CPUs without AVX2 and on the remainders the assembly leaves,
// and on amd64 with AVX2 an assembly body that computes the same bits: every
// product is rounded on its own (no FMA), every sum is added in the
// reference body's order, and the special cases (the clamps, NaN, ±0) take
// the reference body's branch.

// clampHi is the upper clamp of a prediction, so that 1 − x̂ never
// reaches 0.
const clampHi = 1 - 1e-9

// Clamp01 limits v to [0, 1−1e-9] so the no-visit probability product in
// the Hausdorff head stays in (0, 1]. Values outside the bounds have zero
// gradient through the clamp; a NaN passes through.
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > clampHi {
		return clampHi
	}
	return v
}

// SlabVisitProbs scores the head's prediction slab X̂[i,·,·] of Eq (6) and
// turns it into visit probabilities without storing it. For each of the
// len(p) POIs j and each of the K = len(dpdx)/len(p) slots k,
//
//	x̂_jk = Σ_t (u2[j][t]·w[t])·u3[k][t]
//
// with u2 a row-major len(p)×r and u3 a K×r slab, r = len(w), every product
// rounded on its own and the sum in DotRows' order; then p_j = 1 − Π_k (1 −
// Clamp01(x̂_jk)) (Eq 10) and dpdx[j·K+k] = ∂p_j/∂x̂_jk = Π_{k'≠k} (1 −
// Clamp01(x̂_jk')), which are 0 where the clamp saturates (x̂ ≤ 0 or x̂ ≥
// 1 − 1e-9). Each POI's products run over ascending k, its suffix products
// over descending k. scratch holds at least SlabVisitProbsScratch(K, r)
// elements.
//
// The assembly body takes four POIs per register, one per lane, so x̂ needs
// no horizontal sum and no gather, and what it holds of x̂ is one four-POI
// tile's clamped factors, masks and prefix products.
func SlabVisitProbs(p, dpdx, u2, w, u3, scratch []float64) {
	J, r := len(p), len(w)
	if J == 0 {
		return
	}
	K := len(dpdx) / J
	done := 0
	if J >= 4 {
		done = slabVisitProbsAccel(p, dpdx, u2, w, u3, scratch, K)
	}
	slabVisitProbsGo(p[done:], dpdx[done*K:], u2[done*r:], w, u3, scratch, K)
}

// SlabVisitProbsScratch is the scratch length SlabVisitProbs needs at K
// slots and rank r: the assembly body's four-lane copies of the scaled U2
// tile, of u3 and of the per-slot factors, prefixes and clamp masks.
func SlabVisitProbsScratch(K, r int) int { return 4 * (r*(K+1) + 3*K + 1) }

// slabVisitProbsGo is SlabVisitProbs' reference body: per POI, the
// MulDiagTSlice row that scored the slab, then visitProbsGo on that row.
// It uses r + 3K + 1 elements of scratch.
func slabVisitProbsGo(p, dpdx, u2, w, u3, scratch []float64, K int) {
	r := len(w)
	row, xhat := scratch[:r], scratch[r:r+K]
	prefix, oneMinus := scratch[r+K:r+2*K+1], scratch[r+2*K+1:r+3*K+1]
	for j := range p {
		HadamardInto(row, u2[j*r:(j+1)*r], w)
		dotRowsGo(xhat, row, u3)
		visitProbsGo(p[j:j+1], dpdx[j*K:(j+1)*K], xhat, prefix, oneMinus)
	}
}

// visitProbsGo is the probability half of slabVisitProbsGo: p_j and ∂p_j/∂x̂
// for the POIs of the len(p)×K slab xhat; prefix and oneMinus are K+1 and K
// elements of scratch.
func visitProbsGo(p, dpdx, xhat, prefix, oneMinus []float64) {
	K := len(oneMinus)
	for j := range p {
		row := xhat[j*K : (j+1)*K]
		prefix[0] = 1
		for k, x := range row {
			om := 1 - Clamp01(x)
			oneMinus[k] = om
			prefix[k+1] = prefix[k] * om
		}
		p[j] = 1 - prefix[K]
		// ∂p_j/∂x̂_k = prefix[k]·suffix[k+1]; build the suffix product on the
		// fly right-to-left so no second clamp pass is needed.
		drow := dpdx[j*K : (j+1)*K]
		suf := 1.0
		for k := K - 1; k >= 0; k-- {
			x := row[k]
			if x <= 0 || x >= 1-1e-9 {
				drow[k] = 0 // clamp saturated: no gradient
			} else {
				drow[k] = prefix[k] * suf
			}
			suf *= oneMinus[k]
		}
	}
}

// HarmonicSums runs the forward sweep of the head's term 2 at α = −1 for
// two friend POIs a and b at once. For friend POI a with distance row rowA
// it sets dnA[j] = rowA[j]·scale − 1, f_j = p[j]·dnA[j] + 1 and, unless
// f_j < floor, invA[j] = 1/f_j; it returns sA = Σ_j of 1/f_j, or of floorTerm
// where f_j < floor (invA[j] is then 0), added in ascending j. Likewise for
// b. floorTerm is the caller's 1/floor; passing it keeps the constant the
// caller's compiler folded. A lone friend POI passes its row as both a and b.
func HarmonicSums(p, rowA, rowB, dnA, dnB, invA, invB []float64, scale, floor, floorTerm float64) (sA, sB float64) {
	J := len(p)
	rowA, rowB = rowA[:J], rowB[:J]
	dnA, dnB, invA, invB = dnA[:J], dnB[:J], invA[:J], invB[:J]
	done := 0
	if J >= 4 {
		done, sA, sB = harmonicSumsAccel(p, rowA, rowB, dnA, dnB, invA, invB, scale, floor, floorTerm)
	}
	sA = harmonicSumGo(sA, p[done:], rowA[done:], dnA[done:], invA[done:], scale, floor, floorTerm)
	sB = harmonicSumGo(sB, p[done:], rowB[done:], dnB[done:], invB[done:], scale, floor, floorTerm)
	return sA, sB
}

// harmonicSumGo is HarmonicSums' reference body for one friend POI: it
// continues the running sum s over the POIs of p.
func harmonicSumGo(s float64, p, drow, dn, finv []float64, scale, floor, floorTerm float64) float64 {
	J := len(p)
	drow, dn, finv = drow[:J], dn[:J], finv[:J]
	for j := 0; j < J; j++ {
		dnj := drow[j]*scale - 1
		dn[j] = dnj
		fj := p[j]*dnj + 1
		if fj < floor {
			s += floorTerm
			finv[j] = 0
			continue
		}
		inv := 1 / fj
		finv[j] = inv
		s += inv
	}
	return s
}

// HarmonicGrad runs the gradient sweep of the head's term 2 at α = −1: for
// each POI j it adds wA·invA[j]·invA[j]·dnA[j] to dl[j] and then, when dnB is
// not nil, wB·invB[j]·invB[j]·dnB[j], so each POI takes the friend POIs in
// set order.
func HarmonicGrad(dl []float64, wA float64, dnA, invA []float64, wB float64, dnB, invB []float64) {
	J := len(dl)
	two := dnB != nil
	done := 0
	if J >= 4 {
		done = harmonicGradAccel(dl, wA, dnA, invA, wB, dnB, invB, two)
	}
	harmonicGradGo(dl[done:], wA, dnA[done:J], invA[done:J])
	if two {
		harmonicGradGo(dl[done:], wB, dnB[done:J], invB[done:J])
	}
}

// harmonicGradGo is HarmonicGrad's reference body for one friend POI.
func harmonicGradGo(dl []float64, wb float64, dn, finv []float64) {
	for j, iv := range finv {
		dl[j] += wb * iv * iv * dn[j]
	}
}

// HeadChainRule contracts the head's gradient C[j][k] = dLdp[j]·dpdx[j·K+k]
// against the factors, for the POIs j with dLdp[j] ≠ 0 and the slots k with
// C[j][k] ≠ 0:
//
//	G[j] = Σ_k C[j][k]·u3[k]        (over ascending k)
//	du2[j] += (h ⊙ u1) ⊙ G[j]
//	q      += u2[j] ⊙ G[j]           (over ascending j)
//	hk[k]  += C[j][k]·u2[j]          (over ascending j)
//
// u2 and du2 are len(dLdp)×r, u3 and hk are K×r, and h, u1, q and g have r
// elements, r = len(h); g is scratch of at least max(r, K) elements and ks
// of at least K.
func HeadChainRule(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, g []float64, ks []int) {
	if len(dLdp) == 0 {
		return
	}
	if headChainRuleAccel(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, g, ks) {
		return
	}
	headChainRuleGo(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, g[:len(h)])
}

// headChainRuleGo is HeadChainRule's reference body: for each (j, k) with a
// nonzero coefficient one fused inner loop extends both the G[j] accumulator
// (axpy over U3[k]) and H[k] (axpy over U2[j]), so C is swept exactly once and
// never materialized. G rows are consumed immediately (DU2 and q updates), so
// only an r-length accumulator is held.
func headChainRuleGo(du2, hkd, q, dLdp, dpdx, u2, u3, h, u1row, grow []float64) {
	r := len(h)
	J := len(dLdp)
	K := len(dpdx) / J
	for j := 0; j < J; j++ {
		d := dLdp[j]
		if d == 0 {
			continue
		}
		crow := dpdx[j*K : (j+1)*K]
		u2row := u2[j*r : j*r+r]
		for t := range grow {
			grow[t] = 0
		}
		for k, dp := range crow {
			cv := dp * d
			if cv == 0 {
				continue
			}
			u3row := u3[k*r : k*r+r]
			// Reslicing every operand to the range length lets the
			// compiler drop the three per-element bounds checks in the
			// fused axpy below.
			hrow := hkd[k*r : k*r+r][:len(u3row)]
			g := grow[:len(u3row)]
			u2 := u2row[:len(u3row)]
			for t, u := range u3row {
				g[t] += cv * u
				hrow[t] += cv * u2[t]
			}
		}
		drow := du2[j*r : j*r+r]
		for t := 0; t < r; t++ {
			drow[t] += h[t] * u1row[t] * grow[t]
			q[t] += u2row[t] * grow[t]
		}
	}
}
