package baselines

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tcss/internal/eval"
	"tcss/internal/geo"
	"tcss/internal/graph"
	"tcss/internal/tensor"
)

// fixture builds a small two-community problem: users 0..7 visit POIs 0..5,
// users 8..15 visit POIs 6..11, with friendships inside communities and POIs
// clustered in two geographic areas. Community 0 prefers early time units,
// community 1 late ones.
type fixture struct {
	ctx  *Context
	test []tensor.Entry
}

func newFixture(seed int64) *fixture {
	rng := rand.New(rand.NewSource(seed))
	const I, J, K = 16, 12, 4
	full := tensor.NewCOO(I, J, K)
	for u := 0; u < I; u++ {
		lo, hi, kOff := 0, J/2, 0
		if u >= I/2 {
			lo, hi, kOff = J/2, J, 2
		}
		for n := 0; n < 12; n++ {
			full.Set(u, lo+rng.Intn(hi-lo), kOff+rng.Intn(2), 1)
		}
	}
	train, test := full.Split(0.8, rng)

	social := graph.New(I)
	for u := 0; u < I; u++ {
		for v := u + 1; v < I; v++ {
			if (u < I/2) == (v < I/2) && rng.Float64() < 0.5 {
				social.AddEdge(u, v)
			}
		}
	}
	graph.EnsureMinDegree(social, 1, rng)

	pts := make([]geo.Point, J)
	for j := range pts {
		base := geo.Point{Lat: 30, Lon: -97}
		if j >= J/2 {
			base = geo.Point{Lat: 30.5, Lon: -97.6}
		}
		pts[j] = geo.Jitter(base, 0.01, rng)
	}
	return &fixture{
		ctx: &Context{
			Train:  train,
			Social: social,
			Dist:   geo.NewDistanceMatrix(pts),
			Rank:   4,
			Epochs: 6,
			Seed:   seed,
		},
		test: test,
	}
}

// evalModel fits and evaluates one model on the fixture.
func evalModel(t *testing.T, fx *fixture, m Recommender) eval.Result {
	t.Helper()
	if err := m.Fit(fx.ctx); err != nil {
		t.Fatalf("%s: Fit: %v", m.Name(), err)
	}
	return eval.Rank(m, fx.test, fx.ctx.Train.DimJ, eval.Config{Negatives: 11, TopK: 3, Seed: 9})
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 13 {
		t.Fatalf("Registry has %d models, want 13", len(reg))
	}
	seen := map[string]bool{}
	for _, r := range reg {
		if seen[r.Name()] {
			t.Fatalf("duplicate model name %q", r.Name())
		}
		seen[r.Name()] = true
	}
	for _, want := range []string{"MCCO", "PureSVD", "STRNN", "STAN", "STGN", "LFBCA", "CP", "Tucker", "P-Tucker", "TenInt", "NCF", "NTM", "CoSTCo"} {
		if !seen[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
}

func TestLookup(t *testing.T) {
	m, err := Lookup("CP")
	if err != nil || m.Name() != "CP" {
		t.Fatalf("Lookup(CP) = %v, %v", m, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}

// Every model must clearly beat the ranked-last MRR of 1/12 ≈ 0.083 (what a
// constant or broken scorer gets under pessimistic tie-breaking) on the
// community-structured fixture. Models that exploit the community/time
// structure well must additionally beat the random-guess MRR
// (H(12)/12 ≈ 0.26). Time-ignoring models (MCCO, PureSVD, LFBCA) and
// missing-value models (P-Tucker) legitimately rank already-observed train
// positives above held-out test positives, so only the lower bar applies to
// them — the same reason the paper's Table I shows matrix completion last.
func TestAllModelsBeatBrokenScorer(t *testing.T) {
	fx := newFixture(1)
	// TenInt's social regularizer pulls same-community user factors together,
	// which on this 16-user fixture flattens within-community discrimination.
	lowBarOnly := map[string]bool{"MCCO": true, "PureSVD": true, "LFBCA": true, "P-Tucker": true, "TenInt": true}
	for _, m := range Registry() {
		res := evalModel(t, fx, m)
		if math.IsNaN(res.MRR) {
			t.Fatalf("%s produced NaN MRR", m.Name())
		}
		if res.MRR <= 0.12 {
			t.Errorf("%s MRR %.4f no better than a broken scorer", m.Name(), res.MRR)
			continue
		}
		if !lowBarOnly[m.Name()] && res.MRR <= 0.26 {
			t.Errorf("%s MRR %.4f did not beat chance 0.26", m.Name(), res.MRR)
		}
	}
}

func TestCPFitErrorDecreasesWithSweeps(t *testing.T) {
	fx := newFixture(2)
	errAt := func(sweeps int) float64 {
		cp := NewCP()
		cp.Sweeps = sweeps
		if err := cp.Fit(fx.ctx); err != nil {
			t.Fatal(err)
		}
		return cp.fitError(fx.ctx.Train)
	}
	e1, e8 := errAt(1), errAt(8)
	if e8 > e1+1e-9 {
		t.Fatalf("more ALS sweeps must not increase fit error: 1 sweep %g, 8 sweeps %g", e1, e8)
	}
	// The rank-4 fit must explain some of the data.
	if e8 >= frobNormSq(fx.ctx.Train) {
		t.Fatalf("CP fit error %g no better than the zero model %g", e8, frobNormSq(fx.ctx.Train))
	}
}

func TestCPRejectsZeroRank(t *testing.T) {
	fx := newFixture(3)
	fx.ctx.Rank = 0
	if err := NewCP().Fit(fx.ctx); err == nil {
		t.Fatal("rank 0 must error")
	}
}

func TestTuckerFactorsOrthonormal(t *testing.T) {
	fx := newFixture(4)
	tk := NewTucker()
	if err := tk.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]interface {
		At(i, j int) float64
	}{"U1": tk.u1.Gram(), "U2": tk.u2.Gram(), "U3": tk.u3.Gram()} {
		r := tk.r
		for a := 0; a < r; a++ {
			for b := 0; b < r; b++ {
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(u.At(a, b)-want) > 1e-6 {
					t.Fatalf("%s not orthonormal at (%d,%d): %g", name, a, b, u.At(a, b))
				}
			}
		}
	}
}

func TestTuckerRankClampedToTimeDim(t *testing.T) {
	fx := newFixture(5)
	fx.ctx.Rank = 10 // exceeds K = 4
	tk := NewTucker()
	if err := tk.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	if tk.r != 4 {
		t.Fatalf("rank clamp: got %d, want 4", tk.r)
	}
}

func TestPTuckerSeparatesObserved(t *testing.T) {
	fx := newFixture(6)
	pt := NewPTucker()
	if err := pt.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var obsMean, negMean float64
	entries := fx.ctx.Train.Entries()
	for _, e := range entries {
		obsMean += pt.Score(e.I, e.J, e.K)
	}
	obsMean /= float64(len(entries))
	const nNeg = 200
	for n := 0; n < nNeg; n++ {
		i, j, k := rng.Intn(16), rng.Intn(12), rng.Intn(4)
		if fx.ctx.Train.Has(i, j, k) {
			continue
		}
		negMean += pt.Score(i, j, k) / nNeg
	}
	if obsMean <= negMean {
		t.Fatalf("P-Tucker observed mean %g must exceed unobserved mean %g", obsMean, negMean)
	}
}

func TestPureSVDExactOnLowRank(t *testing.T) {
	// A tensor whose user-POI matrix is rank 2 must be reconstructed
	// (almost) exactly by rank-4 PureSVD.
	x := tensor.NewCOO(6, 6, 2)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if (i < 3) == (j < 3) {
				x.Set(i, j, 0, 1)
			}
		}
	}
	ctx := &Context{Train: x, Rank: 4, Seed: 1}
	p := NewPureSVD()
	if err := p.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if (i < 3) == (j < 3) {
				want = 1
			}
			if math.Abs(p.Score(i, j, 0)-want) > 1e-6 {
				t.Fatalf("PureSVD(%d,%d) = %g, want %g", i, j, p.Score(i, j, 0), want)
			}
		}
	}
	// Time index must be irrelevant.
	if p.Score(0, 0, 0) != p.Score(0, 0, 1) {
		t.Fatal("PureSVD must ignore the time index")
	}
}

func TestMCCOPreservesObserved(t *testing.T) {
	fx := newFixture(7)
	m := NewMCCO()
	if err := m.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	for _, e := range fx.ctx.Train.Entries() {
		if got := m.Score(e.I, e.J, 0); math.Abs(got-1) > 1e-9 {
			t.Fatalf("MCCO must keep observed entries fixed, got %g", got)
		}
	}
}

func TestNeuralModelsSeparateClasses(t *testing.T) {
	fx := newFixture(8)
	for _, m := range []Recommender{NewNCF(), NewNTM(), NewCoSTCo()} {
		if err := m.Fit(fx.ctx); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		var pos float64
		entries := fx.ctx.Train.Entries()
		for _, e := range entries {
			s := m.Score(e.I, e.J, e.K)
			if s < 0 || s > 1 {
				t.Fatalf("%s score %g outside [0,1]", m.Name(), s)
			}
			pos += s
		}
		pos /= float64(len(entries))
		rng := rand.New(rand.NewSource(2))
		var neg float64
		const nNeg = 200
		drawn := 0
		for drawn < nNeg {
			i, j, k := rng.Intn(16), rng.Intn(12), rng.Intn(4)
			if fx.ctx.Train.Has(i, j, k) {
				continue
			}
			neg += m.Score(i, j, k)
			drawn++
		}
		neg /= nNeg
		if pos <= neg {
			t.Errorf("%s: positive mean %g must exceed negative mean %g", m.Name(), pos, neg)
		}
	}
}

func TestSequentialModelsDeterministic(t *testing.T) {
	for _, name := range []string{"STRNN", "STGN", "STAN"} {
		a, _ := Lookup(name)
		b, _ := Lookup(name)
		fxA, fxB := newFixture(9), newFixture(9)
		if err := a.Fit(fxA.ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Fit(fxB.ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for n := 0; n < 20; n++ {
			i, j, k := n%16, (n*5)%12, n%4
			if a.Score(i, j, k) != b.Score(i, j, k) {
				t.Fatalf("%s not deterministic under a fixed seed", name)
			}
		}
	}
}

func TestSequencesOrderedAndTrainOnly(t *testing.T) {
	fx := newFixture(10)
	seqs := fx.ctx.Sequences()
	if len(seqs) != fx.ctx.Train.DimI {
		t.Fatal("one sequence per user")
	}
	var total int
	for i, seq := range seqs {
		total += len(seq)
		for s := 1; s < len(seq); s++ {
			if seq[s].TimeIndex < seq[s-1].TimeIndex {
				t.Fatalf("user %d sequence not time-ordered", i)
			}
		}
		for _, v := range seq {
			if !fx.ctx.Train.Has(i, v.POI, v.TimeIndex) {
				t.Fatal("sequence contains a non-training visit")
			}
		}
	}
	if total != fx.ctx.Train.NNZ() {
		t.Fatalf("sequences contain %d visits, train has %d", total, fx.ctx.Train.NNZ())
	}
}

func TestLFBCAMassAndSocialStructure(t *testing.T) {
	fx := newFixture(11)
	l := NewLFBCA()
	if err := l.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	p := l.ppr(0)
	var mass float64
	for _, v := range p {
		mass += v
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("PPR mass = %g, want 1", mass)
	}
	// A user from community 0 must on average score community-0 POIs
	// (visited by the user and friends) above community-1 POIs.
	var own, other float64
	for j := 0; j < 6; j++ {
		own += l.Score(0, j, 0)
		other += l.Score(0, j+6, 0)
	}
	if own <= other {
		t.Fatalf("LFBCA community scores: own %g must exceed other %g", own, other)
	}
	// Time must be ignored.
	if l.Score(0, 1, 0) != l.Score(0, 1, 3) {
		t.Fatal("LFBCA must ignore the time index")
	}
}

func TestScoreBeforeFit(t *testing.T) {
	// The sequential models are servable (SeqServer): before Fit their Score
	// returns 0 and the serving entry points surface ErrNotFitted, which the
	// registry maps to HTTP 503. Every other baseline still panics.
	for _, m := range Registry() {
		if sm, ok := m.(SeqServer); ok {
			if got := m.Score(0, 0, 0); got != 0 {
				t.Errorf("%s: Score before Fit = %g, want 0", m.Name(), got)
			}
			if _, err := sm.RecommendTopN(0, 0, 1); !errors.Is(err, ErrNotFitted) {
				t.Errorf("%s: RecommendTopN before Fit err = %v, want ErrNotFitted", m.Name(), err)
			}
			if _, err := sm.NextTopN(0, []Visit{{POI: 0, TimeIndex: 0}}, 0, 1); !errors.Is(err, ErrNotFitted) {
				t.Errorf("%s: NextTopN before Fit err = %v, want ErrNotFitted", m.Name(), err)
			}
			if _, err := sm.captureState(); !errors.Is(err, ErrNotFitted) {
				t.Errorf("%s: captureState before Fit err = %v, want ErrNotFitted", m.Name(), err)
			}
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Score before Fit must panic", m.Name())
				}
			}()
			m.Score(0, 0, 0)
		}()
	}
}

func TestLogLoss(t *testing.T) {
	// Perfect confident predictions have near-zero loss.
	if l := logLoss(20, 1); l > 1e-6 {
		t.Fatalf("confident positive loss = %g", l)
	}
	if l := logLoss(-20, 0); l > 1e-6 {
		t.Fatalf("confident negative loss = %g", l)
	}
	// Wrong confident predictions are heavily penalized, stably.
	if l := logLoss(-40, 1); math.Abs(l-40) > 1e-6 {
		t.Fatalf("wrong positive loss = %g, want ≈40", l)
	}
	if math.IsNaN(logLoss(1000, 0)) || math.IsInf(logLoss(1000, 0), 0) {
		t.Fatal("logLoss must be stable for huge logits")
	}
}

func TestTenIntSocialRegularization(t *testing.T) {
	fx := newFixture(12)
	ti := NewTenInt()
	if err := ti.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	// Friend user factors must sit closer together than non-friend factors:
	// the social regularizer's defining effect.
	var friendPairs, otherPairs [][2]int
	for u := 0; u < fx.ctx.Train.DimI; u++ {
		for v := u + 1; v < fx.ctx.Train.DimI; v++ {
			if fx.ctx.Social.HasEdge(u, v) {
				friendPairs = append(friendPairs, [2]int{u, v})
			} else {
				otherPairs = append(otherPairs, [2]int{u, v})
			}
		}
	}
	if len(friendPairs) == 0 {
		t.Skip("fixture has no friendships")
	}
	df := ti.userFactorDistance(friendPairs)
	do := ti.userFactorDistance(otherPairs)
	if df >= do {
		t.Fatalf("friend factor distance %g must be below non-friend %g", df, do)
	}
	if ti.userFactorDistance(nil) != 0 {
		t.Fatal("empty pair list must give 0")
	}
}

func TestTenIntNeedsSocialGraph(t *testing.T) {
	fx := newFixture(13)
	fx.ctx.Social = nil
	if err := NewTenInt().Fit(fx.ctx); err == nil {
		t.Fatal("TenInt without a social graph must error")
	}
}

func TestTenIntSocialWeightEffect(t *testing.T) {
	// With a huge social weight, friend factors nearly coincide.
	fx := newFixture(14)
	strong := NewTenInt()
	strong.Social = 100
	if err := strong.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	weak := NewTenInt()
	weak.Social = 0.001
	if err := weak.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for _, e := range fx.ctx.Social.Edges() {
		pairs = append(pairs, e)
	}
	if strong.userFactorDistance(pairs) >= weak.userFactorDistance(pairs) {
		t.Fatal("stronger social weight must shrink friend factor distances")
	}
}

// TestScoreIsSafeAcrossRankingWorkers ranks every fitted baseline with one
// worker and with four and demands the identical eval.Result. Its real job is
// under -race (make race): eval.RankWorkers calls Score from several
// goroutines at once, so a Score that writes shared model state — as the
// neural baselines did through nn.MLP.Forward's activation cache — fails here.
func TestScoreIsSafeAcrossRankingWorkers(t *testing.T) {
	fx := newFixture(5)
	cfg := eval.Config{Negatives: 11, TopK: 3, Seed: 9}
	for _, m := range Registry() {
		if err := m.Fit(fx.ctx); err != nil {
			t.Fatalf("%s: Fit: %v", m.Name(), err)
		}
		one := eval.RankWorkers(m, fx.test, fx.ctx.Train.DimJ, cfg, 1)
		four := eval.RankWorkers(m, fx.test, fx.ctx.Train.DimJ, cfg, 4)
		if one != four {
			t.Errorf("%s: Workers 1 ranked %+v, Workers 4 ranked %+v", m.Name(), one, four)
		}
	}
}

// userFactorDistance returns the mean squared distance between friend user
// factors, the quantity TenInt's regularizer minimizes; tests assert it is
// smaller than for non-friend pairs.
func (t *TenInt) userFactorDistance(pairs [][2]int) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pairs {
		a, b := t.u1.Row(p[0]), t.u1.Row(p[1])
		for d := range a {
			diff := a[d] - b[d]
			sum += diff * diff
		}
	}
	return sum / float64(len(pairs))
}
