package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcss/internal/core"
)

func TestOptionsValidate(t *testing.T) {
	for name, opts := range map[string]Options{"zero value": {}, "defaults": DefaultOptions()} {
		t.Run(name, func(t *testing.T) {
			if err := opts.Validate(); err != nil {
				t.Fatalf("want valid, got %v", err)
			}
		})
	}
}

// scrapeCoalesce reads the coalesce block of the server's /metrics document.
func scrapeCoalesce(t *testing.T, base string) *metricsSnapshot {
	t.Helper()
	var m metricsSnapshot
	if resp := getJSON(t, base+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var histTotal int64
	for i := range m.Coalesce.BatchSizes {
		histTotal += m.Coalesce.BatchSizes[i].Count.Load()
	}
	if histTotal != m.Coalesce.Batches.Load() {
		t.Fatalf("histogram sums to %d batches, counter says %d", histTotal, m.Coalesce.Batches.Load())
	}
	return &m
}

// TestLoneReadSkipsCoalescer: a recommend miss that finds no other read
// admitted scores on its own, so no batch ever runs.
func TestLoneReadSkipsCoalescer(t *testing.T) {
	srv, hs := newTestServer(t, Options{CacheSize: -1, MaxQueue: 8})
	model := srv.snap.load().Model
	for i := 0; i < 5; i++ {
		var got recommendResponse
		url := fmt.Sprintf("%s/v1/recommend?user=%d&t=%d&n=5", hs.URL, i%model.I, i%model.K)
		if resp := getJSON(t, url, &got); resp.StatusCode != http.StatusOK || len(got.Results) != 5 {
			t.Fatalf("request %d: status %d, %d results", i, resp.StatusCode, len(got.Results))
		}
	}
	if m := scrapeCoalesce(t, hs.URL); m.Coalesce.Batches.Load() != 0 || m.Coalesce.Requests.Load() != 0 {
		t.Fatalf("lone reads ran %d batches of %d requests, want none", m.Coalesce.Batches.Load(), m.Coalesce.Requests.Load())
	}
}

// heldReads sends reqs recommend misses to a node with the given wait queue
// and holds each in its admission slot until all of them are in flight, then
// lets them score. None releases its slot before it has scored, so the first
// to reach the scorer sees the others still admitted. Every response must
// equal TopNScratch on the snapshot; heldReads returns the node's metrics.
func heldReads(t *testing.T, reqs, queue int) *metricsSnapshot {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	opts := Options{CacheSize: -1, MaxInflight: reqs, MaxQueue: queue}
	opts.holdForTest = func() { entered <- struct{}{}; <-release }
	srv, hs := newTestServer(t, opts)

	snap := srv.snap.load()
	got := make([]recommendResponse, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/recommend?user=%d&t=%d&n=5", hs.URL, i%snap.Model.I, (i/2)%snap.Model.K)
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&got[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	for i := 0; i < reqs; i++ {
		<-entered
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	sc := core.NewRecScratch(snap.Model)
	for i, g := range got {
		want := snap.Model.TopNScratch(g.User, g.T, 5, snap.Side.OwnPOIs[g.User], sc)
		if g.Generation != snap.Gen || len(g.Results) != len(want) {
			t.Fatalf("request %d: generation %d with %d results, want %d with %d", i, g.Generation, len(g.Results), snap.Gen, len(want))
		}
		for p := range want {
			if want[p].POI != g.Results[p].POI || want[p].Score != g.Results[p].Score {
				t.Fatalf("request %d rank %d: got %+v, TopNScratch %+v", i, p, g.Results[p], want[p])
			}
		}
	}
	return scrapeCoalesce(t, hs.URL)
}

// TestCoalesceBatchesForm: reads held in flight together form at least one
// batch, on every run, and answer exactly what TopNScratch does.
func TestCoalesceBatchesForm(t *testing.T) {
	const reqs = 8
	m := heldReads(t, reqs, reqs)
	if b, r := m.Coalesce.Batches.Load(), m.Coalesce.Requests.Load(); b < 1 || r < b || r > reqs {
		t.Fatalf("%d batches of %d requests, want ≥ 1 batch and at most %d requests", b, r, reqs)
	}
	if m.Model.Storage != "f64" || m.Model.FactorBytes <= 0 || m.Model.BytesPerUser <= 0 {
		t.Fatalf("model metrics = %+v", m.Model)
	}
}

// TestQueuelessNodeNeverBatches: with MaxQueue 0 an arrival that finds every
// slot held is shed, so reads there never park in a batch, however many are
// in flight.
func TestQueuelessNodeNeverBatches(t *testing.T) {
	if m := heldReads(t, 8, 0); m.Coalesce.Batches.Load() != 0 {
		t.Fatalf("%d batches on a node without a wait queue, want none", m.Coalesce.Batches.Load())
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
	opts := Options{
		Online:    quickOnline(),
		OnSwap:    rec.record,
		CacheSize: -1, // force every response through a live batch
		// Coalesced requests hold their admission slot until their batch
		// executes, so give the readers explicit headroom instead of relying
		// on the GOMAXPROCS-derived default.
		MaxInflight: 32,
		MaxQueue:    64,
	}
	// The first two reads wait for each other in their scoring slots, so one
	// of them reaches the scorer while the other is still admitted: at least
	// one batch runs however the readers happen to be scheduled.
	var held atomic.Int32
	paired := make(chan struct{})
	opts.holdForTest = func() {
		switch held.Add(1) {
		case 1:
			<-paired
		case 2:
			close(paired)
		}
	}
	srv, err := New(fitRecommender(t, 21), opts)
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
