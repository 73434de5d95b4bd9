package tcss

// This file is the benchmark harness required to regenerate every table and
// figure of the paper's evaluation section (§V). One Benchmark per
// experiment; each iteration runs the full experiment at a reduced scale so
// `go test -bench=. -benchmem` finishes in reasonable time on a laptop. The
// cmd/experiments binary runs the same experiments at full preset scale and
// prints the complete tables.
//
// Alongside the experiment benchmarks, kernel micro-benchmarks cover the
// performance-critical pieces the paper's Table IV argues about: the naive
// Eq (14) loss, the negative-sampling loss, and the rewritten Eq (15) loss,
// plus the social Hausdorff head and the spectral initialization.

import (
	"math/rand"
	"strconv"
	"testing"

	"tcss/internal/core"
	"tcss/internal/eval"
	"tcss/internal/experiments"
	"tcss/internal/lbsn"
	"tcss/internal/mat"
	"tcss/internal/tensor"
)

// benchOptions trades fidelity for speed: quarter-scale presets and fewer
// epochs. The shapes (who wins, ablation ordering) are preserved; absolute
// metric values are noisier than the full-scale run.
func benchOptions() experiments.Options {
	return experiments.Options{
		Scale: 0.25, Epochs: 40, BaselineEpochs: 2,
		UsersPerEpoch: 40, TrainFrac: 0.8, Seed: 7,
	}
}

// runTable is the shared driver: run the experiment once per iteration and
// report the wall time; the table itself is logged once in verbose mode.
func runTable(b *testing.B, run func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		table, err := run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + table.String())
		}
	}
}

func BenchmarkTableIResults(b *testing.B)   { runTable(b, experiments.TableI) }
func BenchmarkTableIIAblation(b *testing.B) { runTable(b, experiments.TableII) }
func BenchmarkTableIIIWeights(b *testing.B) { runTable(b, experiments.TableIII) }
func BenchmarkTableIVLossTime(b *testing.B) { runTable(b, experiments.TableIV) }

func BenchmarkFig4CategoryHit(b *testing.B)          { runTable(b, experiments.Fig4) }
func BenchmarkFig5CategoryMRR(b *testing.B)          { runTable(b, experiments.Fig5) }
func BenchmarkFig6TimeFactorSimilarity(b *testing.B) { runTable(b, experiments.Fig6) }
func BenchmarkFig7CategorySimilarity(b *testing.B)   { runTable(b, experiments.Fig7) }
func BenchmarkFig8WeightGrid(b *testing.B)           { runTable(b, experiments.Fig8) }
func BenchmarkFig9InitConvergence(b *testing.B)      { runTable(b, experiments.Fig9) }
func BenchmarkFig10RankSweep(b *testing.B)           { runTable(b, experiments.Fig10) }
func BenchmarkFig11LambdaSweep(b *testing.B)         { runTable(b, experiments.Fig11) }
func BenchmarkFig12CaseStudy(b *testing.B)           { runTable(b, experiments.Fig12) }
func BenchmarkFig13TimeScores(b *testing.B)          { runTable(b, experiments.Fig13) }

// Ablation benches for this implementation's own design choices (DESIGN.md §4).
func BenchmarkAblationAlpha(b *testing.B)       { runTable(b, experiments.AblationAlpha) }
func BenchmarkAblationEntropy(b *testing.B)     { runTable(b, experiments.AblationEntropy) }
func BenchmarkAblationSubsampling(b *testing.B) { runTable(b, experiments.AblationUserSubsampling) }
func BenchmarkAblationGranularity(b *testing.B) { runTable(b, experiments.AblationGranularity) }

// benchInstance prepares one reduced Gowalla instance for the kernel
// micro-benchmarks.
func benchInstance(b *testing.B) (*experiments.Instance, *core.Model) {
	b.Helper()
	inst, err := experiments.LoadPreset("gowalla", benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	m := core.NewModel(inst.Train.DimI, inst.Train.DimJ, inst.Train.DimK, 10)
	if err := m.Initialize(core.RandomInit, inst.Train, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	return inst, m
}

// The three Table IV loss strategies as micro-benchmarks: the asymptotic gap
// between the naive O(I·J·K·r) evaluation and the rewritten
// O(|Ω₊|·r + (I+J+K)·r²) form is the paper's efficiency claim.
func BenchmarkLossNaive(b *testing.B) {
	inst, m := benchInstance(b)
	grads := core.NewGrads(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grads.Zero()
		m.NaiveWholeDataLoss(inst.Train, 0.99, 0.01, grads)
	}
}

func BenchmarkLossNegSampling(b *testing.B) {
	inst, m := benchInstance(b)
	grads := core.NewGrads(m)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grads.Zero()
		negs, err := core.SampleNegatives(inst.Train, inst.Train.NNZ(), rng)
		if err != nil {
			b.Fatal(err)
		}
		m.NegSamplingLoss(inst.Train, negs, 0.99, 0.01, grads)
	}
}

func BenchmarkLossRewritten(b *testing.B) {
	inst, m := benchInstance(b)
	grads := core.NewGrads(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grads.Zero()
		m.WholeDataLoss(inst.Train, 0.99, 0.01, grads)
	}
}

// BenchmarkLossRewrittenWorkers sweeps the worker count of the parallel
// positive-entry loop (1 worker = the serial path bit-for-bit).
func BenchmarkLossRewrittenWorkers(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		b.Run("workers-"+strconv.Itoa(w), func(b *testing.B) {
			inst, m := benchInstance(b)
			grads := core.NewGrads(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grads.Zero()
				m.WholeDataLossWorkers(inst.Train, 0.99, 0.01, grads, w)
			}
		})
	}
}

// BenchmarkHausdorffLoss measures one full social-Hausdorff pass (loss +
// gradients over all users), the dominant per-epoch cost of TCSS training.
func BenchmarkHausdorffLoss(b *testing.B) {
	inst, m := benchInstance(b)
	head := core.NewHausdorff(inst.Side.Dist, inst.Side.EntropyW, inst.Side.FriendPOIs)
	users := make([]int, m.I)
	for i := range users {
		users[i] = i
	}
	grads := core.NewGrads(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grads.Zero()
		head.Loss(m, users, grads)
	}
}

// BenchmarkHausdorffLossWorkers sweeps the worker count of the user-sharded
// social-Hausdorff pass.
func BenchmarkHausdorffLossWorkers(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		b.Run("workers-"+strconv.Itoa(w), func(b *testing.B) {
			inst, m := benchInstance(b)
			head := core.NewHausdorff(inst.Side.Dist, inst.Side.EntropyW, inst.Side.FriendPOIs)
			users := make([]int, m.I)
			for i := range users {
				users[i] = i
			}
			grads := core.NewGrads(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grads.Zero()
				head.LossWorkers(m, users, grads, w)
			}
		})
	}
}

// BenchmarkScoreSlab measures the slab GEMM scoring kernel: one full J×K
// prediction slice per iteration (the unit of work of the Hausdorff head and
// the batch scorers).
func BenchmarkScoreSlab(b *testing.B) {
	_, m := benchInstance(b)
	out := make([]float64, m.J*m.K)
	scratch := make([]float64, 2*m.Rank)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScoreSlabScratch(i%m.I, out, scratch)
	}
}

// BenchmarkMulBlocked compares the cache-blocked GEMM against the row-wise
// kernel at a size where all three operands overflow L1.
func BenchmarkMulBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const n = 192
	x := mat.Random(n, n, 1, rng)
	y := mat.Random(n, n, 1, rng)
	out := mat.New(n, n)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.MulBlocked(out, x, y)
		}
	})
	b.Run("rowwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.MulInto(out, x, y)
		}
	})
}

// BenchmarkRank measures the §V-C ranking protocol (100 sampled negatives
// per held-out entry, Hit@10 + MRR) that dominates benchmark-harness
// wall-clock.
func BenchmarkRank(b *testing.B) {
	inst, m := benchInstance(b)
	cfg := eval.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Rank(m, inst.Test, inst.Train.DimJ, cfg)
	}
}

// BenchmarkSpectralInit measures the Eq (4) initialization: three sparse
// Gram matrices plus leading eigenvectors.
func BenchmarkSpectralInit(b *testing.B) {
	inst, _ := benchInstance(b)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewModel(inst.Train.DimI, inst.Train.DimJ, inst.Train.DimK, 10)
		if err := m.Initialize(core.SpectralInit, inst.Train, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpoch measures one complete TCSS training epoch (rewritten
// L2 + social head + Adam step) via a 1-epoch training run.
func BenchmarkTrainEpoch(b *testing.B) {
	inst, _ := benchInstance(b)
	cfg := core.DefaultConfig()
	cfg.Epochs = 1
	cfg.Seed = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(inst.Train, inst.Side, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures the Eq (6) scoring kernel across ranks.
func BenchmarkPredict(b *testing.B) {
	for _, rank := range []int{2, 10, 32} {
		b.Run("rank-"+strconv.Itoa(rank), func(b *testing.B) {
			m := core.NewModel(100, 100, 12, rank)
			rng := rand.New(rand.NewSource(5))
			if err := m.Initialize(core.RandomInit, nil, rng); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += m.Predict(i%100, (i*7)%100, i%12)
			}
			_ = sink
		})
	}
}

// BenchmarkDatasetGeneration measures the LBSN simulator itself.
func BenchmarkDatasetGeneration(b *testing.B) {
	cfg, err := lbsn.NewPreset("gowalla", 6)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Users, cfg.POIs = 120, 240
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := lbsn.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The PR 4 serving-freshness benchmarks: keeping a served
// model current via the engine's warm-start online update (what
// Recommender.Observe does) versus the pre-engine alternative of retraining
// from scratch on the grown tensor. Both report epochs/sec so the comparison
// is per unit of optimization work as well as wall-clock per refresh.
func observeBenchSetup(b *testing.B) (*Recommender, []lbsn.CheckIn, Config) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Epochs = 40
	cfg.UsersPerEpoch = 40
	cfg.Seed = 7
	gen, err := lbsn.NewPreset("gowalla", 7)
	if err != nil {
		b.Fatal(err)
	}
	gen.Users, gen.POIs = gen.Users/4, gen.POIs/4
	ds, err := lbsn.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := Fit(ds, Month, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// A batch of genuinely new cells, as a burst of fresh check-ins would be.
	var fresh []lbsn.CheckIn
	for u := 0; u < ds.NumUsers && len(fresh) < 16; u++ {
		for j := 0; j < len(ds.POIs) && len(fresh) < 16; j++ {
			if !rec.Train.Has(u, j, 5) {
				fresh = append(fresh, lbsn.CheckIn{User: u, POI: j, Month: 5, Week: 22, Hour: 12})
				break
			}
		}
	}
	if len(fresh) == 0 {
		b.Fatal("no fresh cells available")
	}
	return rec, fresh, cfg
}

func BenchmarkObserveWarmStart(b *testing.B) {
	rec, fresh, _ := observeBenchSetup(b)
	online := DefaultOnlineConfig()
	// Observe swaps in private copies on success; restoring the originals
	// makes every iteration fold the same genuinely-new batch.
	m0, t0, s0, ci0 := rec.Model, rec.Train, rec.Side, len(rec.Dataset.CheckIns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Observe(fresh, online); err != nil {
			b.Fatal(err)
		}
		rec.Model, rec.Train, rec.Side = m0, t0, s0
		rec.Dataset.CheckIns = rec.Dataset.CheckIns[:ci0]
	}
	b.ReportMetric(float64(online.Epochs)*float64(b.N)/b.Elapsed().Seconds(), "epochs/sec")
}

func BenchmarkObserveRetrain(b *testing.B) {
	rec, fresh, cfg := observeBenchSetup(b)
	entries := make([]tensor.Entry, len(fresh))
	for n, c := range fresh {
		entries[n] = tensor.Entry{I: c.User, J: c.POI, K: c.Month, Val: 1}
	}
	grown := rec.Train.Clone()
	for _, e := range entries {
		grown.Set(e.I, e.J, e.K, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		side, err := core.BuildSideInfo(rec.Dataset.Social, rec.Dataset.Distances(), grown)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Train(grown, side, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Epochs)*float64(b.N)/b.Elapsed().Seconds(), "epochs/sec")
}
