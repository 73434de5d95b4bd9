// Online: demonstrates incremental model updates. A TCSS model is trained
// on a Foursquare-like LBSN; then a stream of new check-ins arrives and is
// folded into the model with Observe instead of retraining. The example
// tracks how the score of the newly observed cells and the overall held-out
// accuracy evolve.
//
//	go run ./examples/online
package main

import (
	"fmt"
	"log"

	"tcss"
	"tcss/internal/lbsn"
)

func main() {
	ds := tcss.GenerateDataset("foursquare", 99)
	cfg := tcss.DefaultConfig()
	cfg.Seed = 99
	cfg.Epochs = 120
	cfg.UsersPerEpoch = 120
	rec, err := tcss.Fit(ds, tcss.Month, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial model: %v\n\n", rec.Evaluate())

	// Simulate a stream: users revisit their friends' POIs in new months.
	var stream []lbsn.CheckIn
	for u := 0; u < ds.NumUsers && len(stream) < 30; u += 7 {
		friends := rec.FriendPOIs(u)
		if len(friends) == 0 {
			continue
		}
		j := friends[len(friends)/2]
		for k := 0; k < 12; k++ {
			if !rec.Train.Has(u, j, k) {
				stream = append(stream, lbsn.CheckIn{User: u, POI: j, Month: k, Week: k * 4, Hour: 18})
				break
			}
		}
	}
	fmt.Printf("streaming %d new check-ins into the model...\n", len(stream))

	var beforeSum float64
	for _, c := range stream {
		beforeSum += rec.Score(c.User, c.POI, c.Month)
	}
	added, err := rec.Observe(stream, tcss.DefaultOnlineConfig())
	if err != nil {
		log.Fatal(err)
	}
	var afterSum float64
	for _, c := range stream {
		afterSum += rec.Score(c.User, c.POI, c.Month)
	}
	n := float64(len(stream))
	fmt.Printf("folded in %d new cells\n", added)
	fmt.Printf("mean score of the new cells: %.3f -> %.3f\n", beforeSum/n, afterSum/n)
	fmt.Printf("held-out accuracy after update: %v\n", rec.Evaluate())
	fmt.Println("\n(a few warm-start epochs on the new check-ins and sampled negatives")
	fmt.Println(" — no full retraining)")
}
