package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tcss/internal/core"
)

// TestConcurrentReadersGrowthWriter is the open-world variant of
// TestConcurrentReadersObserveWriter: readers hammer GET /v1/recommend while
// a writer applies observe batches that each carry a new-user arrival, a POI
// opening and check-ins referencing them, so every swap also grows the model
// dimensions. Under -race, each response must still be bit-identical to a
// TopNScratch recompute against the snapshot published at the response's
// reported generation — growth must never expose a half-swapped model.
func TestConcurrentReadersGrowthWriter(t *testing.T) {
	var rec genRecorder
	srv, err := New(fitRecommender(t, 21), Options{Grow: true, Online: quickOnline(), OnSwap: rec.record})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const (
		readers = 9
		batches = 3
		topN    = 6
	)
	cells := freshCells(t, srv, batches)
	model := srv.snap.load().Model
	baseI, baseJ := model.I, model.J

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// The scratch is sized for the base model; RecScratch grows its
			// buffers lazily, so recomputing against larger snapshots is safe.
			sc := core.NewRecScratch(model)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				user := (r*7 + i) % baseI
				tu := (r + i) % model.K
				var got recommendResponse
				url := fmt.Sprintf("%s/v1/recommend?user=%d&t=%d&n=%d", hs.URL, user, tu, topN)
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					t.Errorf("reader %d: status %d", r, resp.StatusCode)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					t.Errorf("reader %d: decoding %s: %v", r, url, err)
					return
				}
				snap := rec.wait(got.Generation)
				if snap == nil {
					t.Errorf("reader %d: response claims unknown generation %d", r, got.Generation)
					return
				}
				want := snap.Model.TopNScratch(user, tu, topN, snap.Side.OwnPOIs[user], sc)
				if len(want) != len(got.Results) {
					t.Errorf("reader %d gen %d: %d results, recompute gives %d",
						r, got.Generation, len(got.Results), len(want))
					return
				}
				for p := range want {
					if want[p].POI != got.Results[p].POI || want[p].Score != got.Results[p].Score {
						t.Errorf("reader %d gen %d user %d t %d rank %d: got %+v, recompute %+v",
							r, got.Generation, user, tu, p, got.Results[p], want[p])
						return
					}
				}
			}
		}(r)
	}

	// Growth writer: batch b introduces user baseI+b and POI baseJ+b, with a
	// check-in from the arrival to the opening plus one fresh in-range cell,
	// so every batch both grows the dimensions and adds tensor cells.
	for b := 0; b < batches; b++ {
		newUser, newPOI := baseI+b, baseJ+b
		req := observeRequest{
			NewUsers: []observeNewUser{{ID: newUser, Friends: []int{b % baseI}}},
			NewPOIs:  []observePOI{{ID: newPOI, Lat: 38.83, Lon: -77.31, Category: b % 5}},
			CheckIns: []observeCheckIn{
				{User: newUser, POI: newPOI, Month: 3, Week: 13, Hour: 9},
				cells[b],
			},
		}
		resp, out := postObserve(t, hs.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe batch %d: status %d", b, resp.StatusCode)
		}
		if out.Added == 0 {
			t.Fatalf("observe batch %d added no cells", b)
		}
		if out.Generation != uint64(b+1) {
			t.Fatalf("observe batch %d: generation %d, want %d", b, out.Generation, b+1)
		}
		if out.Users != baseI+b+1 || out.POIs != baseJ+b+1 {
			t.Fatalf("observe batch %d: dims %dx%d, want %dx%d",
				b, out.Users, out.POIs, baseI+b+1, baseJ+b+1)
		}
	}
	close(done)
	wg.Wait()

	if got := srv.Generation(); got != batches {
		t.Fatalf("final generation %d, want %d", got, batches)
	}
	final := srv.snap.load()
	if final.Model.I != baseI+batches || final.Model.J != baseJ+batches {
		t.Fatalf("final dims %dx%d, want %dx%d",
			final.Model.I, final.Model.J, baseI+batches, baseJ+batches)
	}
	if gu, gp := srv.met.ObserveStats.GrownUsers.Load(), srv.met.ObserveStats.GrownPOIs.Load(); gu != batches || gp != batches {
		t.Fatalf("growth counters users=%d pois=%d, want %d each", gu, gp, batches)
	}
}
