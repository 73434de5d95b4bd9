// Golden-run regression tests: short deterministic training runs of TCSS
// (every ablation variant) and every registered baseline, with their loss
// trajectories and final ranking metrics pinned in testdata/golden/*.json.
// Any change to training math — a refactored kernel, a reordered reduction, a
// sign slip in a gradient — shifts a trajectory by far more than the 1e-6
// comparison tolerance and fails here with the exact series and epoch named.
// After an INTENDED change, re-record with:
//
//	go test ./internal/check -update
//
// This file imports internal/baselines, which the check library itself must
// not (baselines' own tests import check); test-only imports cannot cycle.
package check

import (
	"math"
	"testing"

	"tcss/internal/baselines"
	"tcss/internal/core"
	"tcss/internal/eval"
	"tcss/internal/opt"
	"tcss/internal/tensor"
)

// goldenEvalConfig keeps the ranking protocol small enough for the fixture
// (10 POIs) but generic: 7 sampled negatives, top-3 cutoff.
func goldenEvalConfig() eval.Config {
	return eval.Config{Negatives: 7, TopK: 3, Seed: 9}
}

// scorerFunc adapts a scoring method to eval.Scorer.
type scorerFunc func(i, j, k int) float64

func (f scorerFunc) Score(i, j, k int) float64 { return f(i, j, k) }

// rmse is the root-mean-squared error of s against the entries' values.
func rmse(s eval.Scorer, test []tensor.Entry) float64 {
	if len(test) == 0 {
		return 0
	}
	var sum float64
	for _, e := range test {
		d := s.Score(e.I, e.J, e.K) - e.Val
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(test)))
}

// TestGoldenTCSSVariants pins a 6-epoch single-worker trajectory of every
// Hausdorff ablation variant plus the negative-sampling L2 switch.
func TestGoldenTCSSVariants(t *testing.T) {
	fx := NewTrainFixture(31)
	cases := []struct {
		name string
		mut  func(cfg *core.Config)
	}{
		{"social", func(cfg *core.Config) { cfg.Variant = core.SocialHausdorff }},
		{"self", func(cfg *core.Config) { cfg.Variant = core.SelfHausdorff }},
		{"no-l1", func(cfg *core.Config) { cfg.Variant = core.NoHausdorff; cfg.Lambda = 0 }},
		{"zero-out", func(cfg *core.Config) { cfg.Variant = core.ZeroOut; cfg.Lambda = 0 }},
		{"negsampling", func(cfg *core.Config) { cfg.NegSampling = true; cfg.NegPerPos = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Series{}
			cfg := core.DefaultConfig()
			cfg.Rank = 4
			cfg.Epochs = 6
			cfg.Workers = 1 // serial reduction order → bit-stable trajectories
			cfg.Seed = 13
			cfg.EpochCallback = func(epoch int, m *core.Model, loss float64) {
				got.Add("loss", loss)
			}
			tc.mut(&cfg)
			m, err := core.Train(fx.Train, fx.Side, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := eval.Rank(scorerFunc(m.Score), fx.Test, fx.Train.DimJ, goldenEvalConfig())
			got.Add("hit", res.HitAtK)
			got.Add("mrr", res.MRR)
			// RMSE on the raw prediction: the zero-out Score is −Inf on
			// filtered POIs by design, which is a ranking device, not a
			// regression value.
			got.Add("rmse", rmse(scorerFunc(m.Predict), fx.Test))
			Golden(t, "tcss-"+tc.name, got)
		})
	}
}

// TestGoldenBaselines pins the final ranking metrics of every Table I
// baseline after a short deterministic fit on the shared fixture.
func TestGoldenBaselines(t *testing.T) {
	fx := NewTrainFixture(31)
	for _, rec := range baselines.Registry() {
		rec := rec
		t.Run(rec.Name(), func(t *testing.T) {
			ctx := &baselines.Context{
				Train:  fx.Train,
				Social: fx.Social,
				Dist:   fx.Dist,
				Rank:   4,
				Epochs: 3,
				Seed:   13,
			}
			if err := rec.Fit(ctx); err != nil {
				t.Fatal(err)
			}
			res := eval.Rank(scorerFunc(rec.Score), fx.Test, fx.Train.DimJ, goldenEvalConfig())
			got := Series{}
			got.Add("hit", res.HitAtK)
			got.Add("mrr", res.MRR)
			got.Add("rmse", rmse(scorerFunc(rec.Score), fx.Test))
			Golden(t, "baseline-"+rec.Name(), got)
		})
	}
}

// l2AdamTrajectory runs a minimal Adam descent of the whole-data loss and
// returns the per-epoch losses. The sabotage hook corrupts the gradient
// before each step, modeling an undetected backward-pass bug.
func l2AdamTrajectory(sabotage func(*core.Grads)) Series {
	fx := NewTrainFixture(31)
	m := PositiveModel(fx.Train.DimI, fx.Train.DimJ, fx.Train.DimK, 4, 11)
	g := core.NewGrads(m)
	optim := opt.NewAdam(0.05, 0)
	s := Series{}
	for epoch := 0; epoch < 6; epoch++ {
		g.Zero()
		loss := m.WholeDataLossWorkers(fx.Train, 0.99, 0.01, g, 1)
		if sabotage != nil {
			sabotage(g)
		}
		optim.Step("U1", m.U1.Data, g.DU1.Data)
		optim.Step("U2", m.U2.Data, g.DU2.Data)
		optim.Step("U3", m.U3.Data, g.DU3.Data)
		optim.Step("h", m.H, g.DH)
		s.Add("loss", loss)
	}
	return s
}

// TestGoldenL2Adam records the clean trajectory the mutation test below
// diverges from.
func TestGoldenL2Adam(t *testing.T) {
	Golden(t, "l2-adam", l2AdamTrajectory(nil))
}

// TestGoldenCatchesSabotagedGradient is the golden half of the mutation
// acceptance criterion (the checker half lives in internal/core's
// TestGradcheckCatchesSabotagedHeadGradient): a corrupted dH must knock the
// training trajectory visibly off the recorded one. The corruption here is a
// sign flip rather than the checker test's uniform 2% rescale because Adam's
// per-element m/√v normalization absorbs any uniform gradient scaling almost
// exactly — a class of bug only the gradient checker can see, which is why
// the harness needs both layers.
func TestGoldenCatchesSabotagedGradient(t *testing.T) {
	if *update {
		t.Skip("golden files being rewritten")
	}
	want, err := ReadGolden(goldenPath("l2-adam"))
	if err != nil {
		t.Fatalf("run with -update first: %v", err)
	}
	got := l2AdamTrajectory(func(g *core.Grads) {
		g.DH[0] = -g.DH[0]
	})
	if err := CompareSeries(want, got, DefaultGoldenRelTol); err == nil {
		t.Fatal("sabotaged gradient reproduced the golden trajectory; mutation not caught")
	}
}
