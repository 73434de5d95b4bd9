package core

import (
	"math/rand"
	"testing"

	"tcss/internal/lbsn"
	"tcss/internal/mat"
)

// BenchmarkNormBoundPrunable measures how much of the top-N scan exact
// norm-bound pruning could skip (the negative result in DESIGN §7). By
// Cauchy–Schwarz the Eq (6) score ⟨w, U2ⱼ⟩ is at most ‖w‖·‖U2ⱼ‖, so a row
// whose bound, padded by 1e-9 for rounding, is below the scan's running
// threshold cannot enter the top n and needs no dot product. The benchmark
// reports the share of rows that test skips (prunable_frac) over 200 top-10
// queries on the node-scan shape (J = 131 072, rank 10, uniform fill) and on
// the gowalla preset after a 60-epoch fit; ns/op is the pruned scan, which is
// the probe, not a serving path.
func BenchmarkNormBoundPrunable(b *testing.B) {
	node := NewModel(2048, 131072, 12, 10)
	rng := rand.New(rand.NewSource(1))
	for _, data := range [][]float64{node.H, node.U1.Data, node.U2.Data, node.U3.Data} {
		for t := range data {
			data[t] = rng.Float64()*2 - 1
		}
	}
	ds := lbsn.MustPreset("gowalla", 1)
	train, _ := ds.Tensor(lbsn.Month).Split(0.8, rand.New(rand.NewSource(1)))
	side, err := BuildSideInfo(ds.Social, ds.Distances(), train)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Epochs, cfg.Seed = 60, 1
	gowalla, err := Train(train, side, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *Model
		skip [][]int
	}{{"node-scan", node, nil}, {"gowalla60", gowalla, side.OwnPOIs}} {
		b.Run(c.name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				frac = prunableFrac(c.m, c.skip, 200, 10, rand.New(rand.NewSource(2)))
			}
			b.ReportMetric(frac, "prunable_frac")
		})
	}
}

// prunableFrac runs queries random top-n scans of the float64 model m, each
// skipping the user's row of skip (nil: nothing) as a served request skips
// its own POIs, with the norm-bound test in front of each dot product, and
// returns the share of rows the test skipped.
func prunableFrac(m *Model, skip [][]int, queries, n int, rng *rand.Rand) float64 {
	norms := make([]float64, m.J)
	for j := range norms {
		norms[j] = mat.Norm2(m.U2.Row(j))
	}
	w := make([]float64, m.Rank)
	pruned := 0
	for range queries {
		i := rng.Intn(m.I)
		m.buildWeights(i, rng.Intn(m.K), w, nil)
		var own []int
		if skip != nil {
			own = skip[i]
		}
		bound := mat.Norm2(w) * (1 + 1e-9)
		var h topKHeap
		var d [1]float64
		thr, p := h.threshold(n), 0
		for j := range m.J {
			if bound*norms[j] < thr {
				pruned++
				continue
			}
			mat.DotRows(d[:], w, m.U2.Row(j))
			if !(d[0] <= thr) {
				p, thr = h.admit(j, d[0], n, own, p, nil)
			}
		}
	}
	return float64(pruned) / float64(queries*m.J)
}
