// Diversity: demonstrates the location-entropy weighting (Eq 11/12). POIs
// visited by many different users (high location entropy, e.g. a Costco)
// carry little social signal, so the paper down-weights them by exp(-E_j) in
// the social Hausdorff head. This example prints the distribution of the
// weights e_j the fitted model uses, then compares the popularity profile of
// the recommendations produced with and without entropy weighting.
//
//	go run ./examples/diversity
package main

import (
	"fmt"
	"log"
	"sort"

	"tcss"
)

func main() {
	ds := tcss.GenerateDataset("gowalla", 31)

	// Distinct visitors per POI, to relate entropy to popularity.
	visitors := make([]map[int]bool, len(ds.POIs))
	for _, c := range ds.CheckIns {
		if visitors[c.POI] == nil {
			visitors[c.POI] = make(map[int]bool)
		}
		visitors[c.POI][c.User] = true
	}
	popularity := func(j int) int { return len(visitors[j]) }

	fit := func(disableEntropy bool) *tcss.Recommender {
		cfg := tcss.DefaultConfig()
		cfg.Seed = 31
		cfg.Epochs = 150
		cfg.UsersPerEpoch = 120
		cfg.DisableEntropy = disableEntropy
		rec, err := tcss.Fit(ds, tcss.Month, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return rec
	}
	weighted := fit(false)
	unweighted := fit(true)

	// The weights e_j = exp(-E_j) the fitted head applies, folded from the
	// training split: 1 for a POI at most one user visits, smaller the more
	// users share it.
	sorted := append([]float64(nil), weighted.Side.EntropyW...)
	sort.Float64s(sorted)
	fmt.Println("location-entropy weight e_j over POIs:")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		idx := int(q*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		fmt.Printf("  p%-3.0f  %.3f\n", q*100, sorted[idx])
	}

	// Mean popularity (distinct visitors) of the top-10 recommendations
	// across users: entropy weighting should surface less-crowded POIs.
	meanPop := func(rec *tcss.Recommender) float64 {
		var total, n float64
		for u := 0; u < ds.NumUsers; u += 3 {
			for _, r := range rec.Recommend(u, 6, 10) {
				total += float64(popularity(r.POI))
				n++
			}
		}
		return total / n
	}
	fmt.Println("\nmean distinct-visitor count of recommended POIs:")
	fmt.Printf("  entropy-weighted head:   %.1f visitors\n", meanPop(weighted))
	fmt.Printf("  unweighted head:         %.1f visitors\n", meanPop(unweighted))

	// Both models should still rank held-out check-ins comparably.
	fmt.Println("\nheld-out ranking quality:")
	rw, ru := weighted.Evaluate(), unweighted.Evaluate()
	fmt.Printf("  entropy-weighted head:   Hit@10 = %.4f, MRR = %.4f\n", rw.HitAtK, rw.MRR)
	fmt.Printf("  unweighted head:         Hit@10 = %.4f, MRR = %.4f\n", ru.HitAtK, ru.MRR)
}
