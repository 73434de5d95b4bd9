package eval_test

import (
	"math"
	"testing"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/eval"
)

// Drift tolerances for the compact storage modes, asserted on both NDCG@10
// (sampled-negative protocol) and recall@10 (full-ranking protocol). float32
// keeps ~7 significant digits, so ranking metrics may move only where two
// scores were near-ties; int8 rounds factors to 1/127 of each row's max and
// is allowed visibly more drift — the contract callers trade memory against.
const (
	f32DriftTol  = 0.01
	int8DriftTol = 0.05
)

// TestQuantizationRankingDrift is the quality gate for the compact storage
// modes: on the golden presets, converting a trained model to float32 or int8
// must not move NDCG@10 or recall@10 beyond the documented drift bounds, and
// must shrink the resident factor bytes by the promised ratios (≥ 2x for
// float32, ≥ 4x for int8).
func TestQuantizationRankingDrift(t *testing.T) {
	for _, preset := range []string{"gowalla", "gmu-5k"} {
		t.Run(preset, func(t *testing.T) {
			ds := tcss.GenerateDataset(preset, 11)
			cfg := tcss.DefaultConfig()
			cfg.Epochs = 30
			cfg.Seed = 11
			// Realistic rank: at tiny ranks the fixed overheads (float64 core
			// weights, int8 per-row scales) dominate the shrink ratios this
			// test asserts.
			cfg.Rank = 12
			rec, err := tcss.Fit(ds, tcss.Month, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := rec.Model
			evalCfg := eval.DefaultConfig()

			// Full-ranking recall@10 excludes each user's training POIs, the
			// usual protocol (and what the serving skip lists implement).
			own := make([]map[int]bool, base.I)
			for u := range own {
				own[u] = make(map[int]bool, len(rec.Side.OwnPOIs[u]))
				for _, j := range rec.Side.OwnPOIs[u] {
					own[u][j] = true
				}
			}
			skip := func(user, poi int) bool { return own[user][poi] }

			type quality struct{ ndcg, recall float64 }
			measure := func(m *tcss.Model) quality {
				ext := eval.RankExtended(eval.ScorerFunc(m.Score), rec.Test, base.J, evalCfg)
				_, recall := eval.TopNMetrics(eval.ScorerFunc(m.Score), rec.Test, base.J, 10, skip)
				return quality{ndcg: ext.NDCGAtK, recall: recall}
			}
			ref := measure(base)
			if ref.ndcg == 0 {
				t.Fatalf("%s: degenerate reference NDCG@10 = 0", preset)
			}

			for _, tc := range []struct {
				mode core.StorageMode
				tol  float64
				size float64 // minimum factor-bytes shrink ratio vs f64
			}{
				// float32 halves every slab but h stays float64, so the
				// ratio approaches 2 from below; int8 clears 4x once the
				// rank amortizes its per-row scales.
				{core.StorageFloat32, f32DriftTol, 1.95},
				{core.StorageInt8, int8DriftTol, 4},
			} {
				compact, err := base.ToStorage(tc.mode)
				if err != nil {
					t.Fatal(err)
				}
				got := measure(compact)
				if d := math.Abs(got.ndcg - ref.ndcg); d > tc.tol {
					t.Errorf("%s %v: NDCG@10 drift %.4f (%.4f vs %.4f) exceeds %.4f",
						preset, tc.mode, d, got.ndcg, ref.ndcg, tc.tol)
				}
				if d := math.Abs(got.recall - ref.recall); d > tc.tol {
					t.Errorf("%s %v: recall@10 drift %.4f (%.4f vs %.4f) exceeds %.4f",
						preset, tc.mode, d, got.recall, ref.recall, tc.tol)
				}
				ratio := float64(base.FactorBytes()) / float64(compact.FactorBytes())
				if ratio < tc.size {
					t.Errorf("%s %v: factor bytes shrink %.2fx, want >= %.0fx",
						preset, tc.mode, ratio, tc.size)
				}
				t.Logf("%s %v: NDCG@10 %.4f (f64 %.4f), recall@10 %.4f (f64 %.4f), %.2fx smaller",
					preset, tc.mode, got.ndcg, ref.ndcg, got.recall, ref.recall, ratio)
			}
		})
	}
}
