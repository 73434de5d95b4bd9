package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The head kernels' fMin guard, as core.Hausdorff passes it.
const (
	testFloor     = 1e-4
	testFloorTerm = 1 / testFloor
)

// headSpecials are the values the head kernels branch on — the clamp bounds
// 0 and clampHi, the floor fMin and the values around them — followed by the
// values no trained model holds but the kernels must still carry bit for
// bit: signed zeros, infinities, NaN, subnormals.
var headSpecials = append([]float64{
	clampHi, math.Nextafter(clampHi, 0), math.Nextafter(clampHi, 2), 1,
	testFloor, math.Nextafter(testFloor, 0), math.Nextafter(testFloor, 1), testFloor - 1, -1, 0.5,
}, specials...)

// checkHeadKernels runs every head kernel on one J-POI, K-slot, rank-r input
// drawn from next and fails unless the dispatched kernel (assembly where the
// CPU has it, then the Go body on the remainder) and the Go reference body
// over the whole input give the same bits. With floorAt0 the floor is POI 0's
// own term-2 operand f_0, so the clamp compares two equal values.
func checkHeadKernels(t *testing.T, J, K, r int, next func() float64, floorAt0 bool) {
	t.Helper()
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = next()
		}
		return v
	}
	same := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s J=%d K=%d r=%d: [%d] = %v (%#x), reference %v (%#x)",
					name, J, K, r, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}

	// The slab and its probabilities: on drawn factors, then with w = 1 and
	// u3 row k the unit vector of rank element k mod r, so that x̂_jk is
	// u2[j][k mod r] itself (an infinite or NaN u2 row makes its zero
	// products NaN) and the clamp bounds and special values reach the
	// probability stage.
	u2s, ws, u3s := fill(J*r), fill(r), fill(K*r)
	for _, unit := range []bool{false, true} {
		if unit {
			for t := range ws {
				ws[t] = 1
			}
			for k := 0; k < K; k++ {
				for t := 0; t < r; t++ {
					u3s[k*r+t] = 0
				}
				u3s[k*r+k%r] = 1
			}
		}
		p, dpdx := fill(J), fill(J*K)
		SlabVisitProbs(p, dpdx, u2s, ws, u3s, make([]float64, SlabVisitProbsScratch(K, r)))
		wp, wdpdx := make([]float64, J), make([]float64, J*K)
		slabVisitProbsGo(wp, wdpdx, u2s, ws, u3s, make([]float64, r+3*K+1), K)
		same("SlabVisitProbs p", p, wp)
		same("SlabVisitProbs dpdx", dpdx, wdpdx)
	}

	// Term 2, forward, for two friend POIs and for one passed twice.
	pr, rowA, rowB := fill(J), fill(J), fill(J)
	scale := next()
	floor := testFloor
	if floorAt0 {
		floor = pr[0]*(rowA[0]*scale-1) + 1
	}
	term := 1 / floor
	for _, pair := range [][2][]float64{{rowA, rowB}, {rowA, rowA}} {
		dnA, dnB, invA, invB := fill(J), fill(J), fill(J), fill(J)
		sA, sB := HarmonicSums(pr, pair[0], pair[1], dnA, dnB, invA, invB, scale, floor, term)
		wdnA, wdnB, winvA, winvB := make([]float64, J), make([]float64, J), make([]float64, J), make([]float64, J)
		wsA := harmonicSumGo(0, pr, pair[0], wdnA, winvA, scale, floor, term)
		wsB := harmonicSumGo(0, pr, pair[1], wdnB, winvB, scale, floor, term)
		same("HarmonicSums s", []float64{sA, sB}, []float64{wsA, wsB})
		same("HarmonicSums dnA", dnA, wdnA)
		same("HarmonicSums dnB", dnB, wdnB)
		same("HarmonicSums invA", invA, winvA)
		same("HarmonicSums invB", invB, winvB)
	}

	// Term 2, gradient, for one friend POI and for two.
	dnA, invA, dnB, invB, dl := fill(J), fill(J), fill(J), fill(J), fill(J)
	wA, wB := next(), next()
	got, want := append([]float64(nil), dl...), append([]float64(nil), dl...)
	HarmonicGrad(got, wA, dnA, invA, 0, nil, nil)
	harmonicGradGo(want, wA, dnA, invA)
	same("HarmonicGrad one", got, want)
	HarmonicGrad(got, wA, dnA, invA, wB, dnB, invB)
	harmonicGradGo(want, wA, dnA, invA)
	harmonicGradGo(want, wB, dnB, invB)
	same("HarmonicGrad two", got, want)

	// The chain rule: one POI in three has dL/dp = 0, one slot in three
	// ∂p/∂x̂ = 0, as the clamps leave them.
	dLdp, dp := fill(J), fill(J*K)
	for j := 0; j < J; j += 3 {
		dLdp[j] = 0
	}
	for i := 1; i < len(dp); i += 3 {
		dp[i] = 0
	}
	u2, u3, h, u1 := fill(J*r), fill(K*r), fill(r), fill(r)
	du2, hk, q := fill(J*r), fill(K*r), fill(r)
	wdu2, whk, wq := append([]float64(nil), du2...), append([]float64(nil), hk...), append([]float64(nil), q...)
	HeadChainRule(du2, hk, q, dLdp, dp, u2, u3, h, u1, make([]float64, max(r, K)), make([]int, K))
	headChainRuleGo(wdu2, whk, wq, dLdp, dp, u2, u3, h, u1, make([]float64, r))
	same("HeadChainRule du2", du2, wdu2)
	same("HeadChainRule hk", hk, whk)
	same("HeadChainRule q", q, wq)
}

// headValues returns a source of kernel inputs: values near a model's
// (predictions around [0, 1], distances of 0 to a few, factors of order 1)
// with one in seven drawn from headSpecials.
func headValues(rng *rand.Rand) func() float64 {
	return func() float64 {
		if rng.Intn(7) == 0 {
			return headSpecials[rng.Intn(len(headSpecials))]
		}
		return 2*rng.Float64() - 0.5
	}
}

// TestHeadKernelsMatchReference sweeps POI counts 1…13 (every remainder of
// the four-POI groups), 37 and 40, slot counts 1…5, 12, 13, 24 and 25, and
// ranks 1…20 (every tail of the four-wide rank chunks).
func TestHeadKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, J := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 37, 40} {
		for _, K := range []int{1, 2, 3, 4, 5, 12, 13, 24, 25} {
			for r := 1; r <= 20; r++ {
				checkHeadKernels(t, J, K, r, headValues(rng), r%2 == 0)
			}
		}
	}
}

// FuzzHausdorffKernels holds every head kernel to its Go reference body bit
// for bit. The first three bytes pick the shape (up to 40 POIs, 25 slots and
// rank 20) and the fourth the floor; each further byte gives one value: a
// special value below 0x40, otherwise the next eight bytes' float64 when they
// remain. Once the bytes run out, values come from headValues seeded by the
// input's length.
func FuzzHausdorffKernels(f *testing.F) {
	f.Add([]byte{37, 12, 10, 0})
	f.Add([]byte{5, 3, 17, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{8, 1, 1, 0, 0x40, 0x55, 0x3e, 0x10, 0xd0, 0x50, 0xe2, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		J, K, r := 1+int(data[0]%40), 1+int(data[1]%25), 1+int(data[2]%20)
		floorAt0 := data[3]%2 == 1
		src := data[4:]
		fallback := headValues(rand.New(rand.NewSource(int64(len(data)))))
		next := func() float64 {
			if len(src) == 0 {
				return fallback()
			}
			b := src[0]
			src = src[1:]
			if b < 0x40 {
				return headSpecials[int(b)%len(headSpecials)]
			}
			if len(src) < 8 {
				return float64(int8(b)) / 64
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(src))
			src = src[8:]
			return v
		}
		checkHeadKernels(t, J, K, r, next, floorAt0)
	})
}

// BenchmarkHeadKernels times each head kernel at train-fit's shape (gowalla:
// J = 800 POIs, K = 12 slots, rank 10) with about a third of the predictions
// outside the clamp, dispatched ("kernel") and through the Go reference body
// alone ("go"). The slab's w is 1 and its u3 rows are unit vectors, so each
// prediction is a u2 entry drawn from [−0.3, 1.1]; the term-2 rows are one
// sweep over two friend POIs.
func BenchmarkHeadKernels(b *testing.B) {
	const J, K, r = 800, 12, 10
	rng := rand.New(rand.NewSource(1))
	vals := func(n int, lo, hi float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = lo + (hi-lo)*rng.Float64()
		}
		return v
	}
	u2x, wx, u3x := vals(J*r, -0.3, 1.1), make([]float64, r), make([]float64, K*r)
	for t := range wx {
		wx[t] = 1
	}
	for k := 0; k < K; k++ {
		u3x[k*r+k%r] = 1
	}
	p, dpdx := make([]float64, J), make([]float64, J*K)
	slab, slabGo := make([]float64, SlabVisitProbsScratch(K, r)), make([]float64, r+3*K+1)
	SlabVisitProbs(p, dpdx, u2x, wx, u3x, slab)
	rowA, rowB := vals(J, 0, 3000), vals(J, 0, 3000)
	dnA, dnB, invA, invB := make([]float64, J), make([]float64, J), make([]float64, J), make([]float64, J)
	HarmonicSums(p, rowA, rowB, dnA, dnB, invA, invB, 1.0/3000, testFloor, testFloorTerm)
	dl := make([]float64, J)
	u2, u3, h, u1 := vals(J*r, -1, 1), vals(K*r, -1, 1), vals(r, 0, 1), vals(r, -1, 1)
	du2, hk, q, g, ks := make([]float64, J*r), make([]float64, K*r), make([]float64, r), make([]float64, max(r, K)), make([]int, K)
	const scale = 1.0 / 3000
	b.Run("slabprobs/kernel", func(b *testing.B) {
		for range b.N {
			SlabVisitProbs(p, dpdx, u2x, wx, u3x, slab)
		}
	})
	b.Run("slabprobs/go", func(b *testing.B) {
		for range b.N {
			slabVisitProbsGo(p, dpdx, u2x, wx, u3x, slabGo, K)
		}
	})
	b.Run("term2/kernel", func(b *testing.B) {
		for range b.N {
			HarmonicSums(p, rowA, rowB, dnA, dnB, invA, invB, scale, testFloor, testFloorTerm)
		}
	})
	b.Run("term2/go", func(b *testing.B) {
		for range b.N {
			harmonicSumGo(0, p, rowA, dnA, invA, scale, testFloor, testFloorTerm)
			harmonicSumGo(0, p, rowB, dnB, invB, scale, testFloor, testFloorTerm)
		}
	})
	b.Run("grad/kernel", func(b *testing.B) {
		for range b.N {
			HarmonicGrad(dl, 1e-3, dnA, invA, 2e-3, dnB, invB)
		}
	})
	b.Run("grad/go", func(b *testing.B) {
		for range b.N {
			harmonicGradGo(dl, 1e-3, dnA, invA)
			harmonicGradGo(dl, 2e-3, dnB, invB)
		}
	})
	dLdp := vals(J, -1e-3, 1e-3)
	b.Run("chain/kernel", func(b *testing.B) {
		for range b.N {
			HeadChainRule(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, g, ks)
		}
	})
	b.Run("chain/go", func(b *testing.B) {
		for range b.N {
			headChainRuleGo(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, g[:r])
		}
	})
}
