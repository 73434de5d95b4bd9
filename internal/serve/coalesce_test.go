package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tcss/internal/core"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"defaults", DefaultOptions(), true},
		{"coalesce with defaults", Options{Coalesce: true}, true},
		{"coalesce tuned", Options{Coalesce: true, CoalesceWindow: time.Millisecond, CoalesceBatch: 8}, true},
		{"batch 0 means default", Options{Coalesce: true, CoalesceBatch: 0}, true},
		{"negative window", Options{CoalesceWindow: -time.Microsecond}, false},
		{"negative batch", Options{CoalesceBatch: -3}, false},
		{"batch of one", Options{CoalesceBatch: 1}, false},
		{"window at timeout", Options{Coalesce: true, RequestTimeout: time.Second, CoalesceWindow: time.Second}, false},
		{"window above default timeout", Options{Coalesce: true, CoalesceWindow: 3 * time.Second}, false},
		{"long window ignored when off", Options{Coalesce: false, CoalesceWindow: 3 * time.Second}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want validation error, got nil")
			}
		})
	}
	// New must surface the same rejection.
	if _, err := New(fitRecommender(t, 21), Options{CoalesceBatch: -1}); err == nil {
		t.Fatal("New must reject invalid coalescing options")
	}
}

// TestCoalesceBatchesForm drives concurrent requests into a wide window and
// checks batches actually form: /metrics must report every request travelling
// through the coalescer and at least one multi-request batch.
func TestCoalesceBatchesForm(t *testing.T) {
	srv, hs := newTestServer(t, Options{
		Coalesce:       true,
		CoalesceWindow: 100 * time.Millisecond,
		CoalesceBatch:  4,
		CacheSize:      -1, // every request must reach the coalescer
		// Coalesced requests hold admission slots for up to the window;
		// give all 8 concurrent requests slots regardless of GOMAXPROCS.
		MaxInflight: 16,
		MaxQueue:    16,
	})
	defer hs.Close()

	model := srv.snap.load().Model
	const reqs = 8
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/recommend?user=%d&t=%d&n=5", hs.URL, i%model.I, (i/2)%model.K)
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	var m metricsSnapshot
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !m.Coalesce.Enabled {
		t.Fatal("metrics must report coalescing enabled")
	}
	if m.Coalesce.Requests.Load() != reqs {
		t.Fatalf("coalesced requests = %d, want %d", m.Coalesce.Requests.Load(), reqs)
	}
	if m.Coalesce.Batches.Load() < 1 || m.Coalesce.Batches.Load() > reqs {
		t.Fatalf("batches = %d, want within [1, %d]", m.Coalesce.Batches.Load(), reqs)
	}
	var histTotal int64
	for i := range m.Coalesce.BatchSizes {
		histTotal += m.Coalesce.BatchSizes[i].Count.Load()
	}
	if histTotal != m.Coalesce.Batches.Load() {
		t.Fatalf("histogram sums to %d batches, counter says %d", histTotal, m.Coalesce.Batches.Load())
	}
	if m.Coalesce.MaxBatch != 4 || m.Coalesce.WindowUs != 100_000 {
		t.Fatalf("coalesce config in metrics = max %d window %.0fµs", m.Coalesce.MaxBatch, m.Coalesce.WindowUs)
	}
	if m.Model.Storage != "f64" || m.Model.FactorBytes <= 0 || m.Model.BytesPerUser <= 0 {
		t.Fatalf("model metrics = %+v", m.Model)
	}
}

// TestCoalescedConcurrentReadersBitIdentical is the coalesced twin of
// TestConcurrentReadersObserveWriter: readers hammer /v1/recommend through
// the batching path while observe batches swap snapshot generations, and
// under -race every response must be reproducible bit for bit by running
// TopNScratch against the snapshot published at the generation the response
// reports — the coalescer's core contract.
func TestCoalescedConcurrentReadersBitIdentical(t *testing.T) {
	var rec genRecorder
	srv, err := New(fitRecommender(t, 21), Options{
		Online:         quickOnline(),
		OnSwap:         rec.record,
		Coalesce:       true,
		CoalesceWindow: 150 * time.Microsecond,
		CoalesceBatch:  5,
		CacheSize:      -1, // force every response through a live batch
		// Coalesced requests hold their admission slot for the whole window,
		// so give the readers explicit headroom instead of relying on the
		// GOMAXPROCS-derived default.
		MaxInflight: 32,
		MaxQueue:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const (
		readers  = 9
		batches  = 3
		perBatch = 2
		topN     = 6
	)
	cells := freshCells(t, srv, batches*perBatch)
	model := srv.snap.load().Model

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sc := core.NewRecScratch(model)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				user := (r*7 + i) % model.I
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

	for b := 0; b < batches; b++ {
		batch := cells[b*perBatch : (b+1)*perBatch]
		resp, out := postObserve(t, hs.URL, observeRequest{CheckIns: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe batch %d: status %d", b, resp.StatusCode)
		}
		if out.Added == 0 {
			t.Fatalf("observe batch %d added no cells", b)
		}
		// Let readers churn between generation swaps so batches execute on
		// several distinct snapshots.
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()

	if got := srv.Generation(); got != batches {
		t.Fatalf("final generation %d, want %d", got, batches)
	}
	if srv.met.Coalesce.Batches.Load() == 0 || srv.met.Coalesce.Requests.Load() == 0 {
		t.Fatal("no requests travelled through the coalescer")
	}
}
