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

// freshCells collects n distinct (user, poi) cells absent from the training
// tensor of the server's current snapshot, spread across users so every
// observe batch below genuinely adds cells.
func freshCells(t *testing.T, srv *Server, n int) []observeCheckIn {
	t.Helper()
	snap := srv.snap.load()
	own := make([]map[int]bool, snap.Model.I)
	for u := range own {
		own[u] = map[int]bool{}
		for _, j := range snap.Side.OwnPOIs[u] {
			own[u][j] = true
		}
	}
	var cells []observeCheckIn
	for j := 0; j < snap.Model.J && len(cells) < n; j++ {
		for u := 0; u < snap.Model.I && len(cells) < n; u++ {
			if !own[u][j] {
				own[u][j] = true
				cells = append(cells, observeCheckIn{User: u, POI: j, Month: 3, Week: 13, Hour: 9})
			}
		}
	}
	if len(cells) < n {
		t.Fatalf("only %d fresh cells available, want %d", len(cells), n)
	}
	return cells
}

// genRecorder keeps every snapshot a server publishes, by generation. Its
// record method goes in Options.OnSwap, which also sees the snapshot published
// inside New.
type genRecorder struct {
	mu    sync.Mutex
	byGen map[uint64]*Snapshot
}

func (g *genRecorder) record(snap *Snapshot) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.byGen == nil {
		g.byGen = map[uint64]*Snapshot{}
	}
	g.byGen[snap.Gen] = snap
}

// wait returns the recorded snapshot of a generation a reader already saw, or
// nil after two seconds: publish stores the atomic pointer before it calls
// OnSwap, so a response can name a generation a beat before it is recorded.
func (g *genRecorder) wait(gen uint64) *Snapshot {
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.Lock()
		snap := g.byGen[gen]
		g.mu.Unlock()
		if snap != nil || time.Now().After(deadline) {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentReadersObserveWriter hammers GET /v1/recommend from many
// goroutines while a writer applies observe batches, and checks under -race
// that every response is internally consistent with exactly one snapshot
// generation: recomputing TopNScratch against the snapshot published at the
// response's reported generation must reproduce the response bit for bit.
func TestConcurrentReadersObserveWriter(t *testing.T) {
	var rec genRecorder
	srv, err := New(fitRecommender(t, 21), Options{Online: quickOnline(), OnSwap: rec.record})
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

	// Single observe writer: each batch adds fresh cells, so every batch must
	// advance the generation by exactly one.
	for b := 0; b < batches; b++ {
		batch := cells[b*perBatch : (b+1)*perBatch]
		resp, out := postObserve(t, hs.URL, observeRequest{CheckIns: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe batch %d: status %d", b, resp.StatusCode)
		}
		if out.Added == 0 {
			t.Fatalf("observe batch %d added no cells", b)
		}
		if out.Generation != uint64(b+1) {
			t.Fatalf("observe batch %d: generation %d, want %d", b, out.Generation, b+1)
		}
	}
	close(done)
	wg.Wait()

	if got := srv.Generation(); got != batches {
		t.Fatalf("final generation %d, want %d", got, batches)
	}
	rec.mu.Lock()
	recorded := len(rec.byGen)
	rec.mu.Unlock()
	if recorded != batches+1 {
		t.Fatalf("recorded %d snapshots, want %d", recorded, batches+1)
	}
}

// TestConcurrentScrapes: the /metrics document is shared live storage, so
// scrapes that fill its gauges must not race with each other or with the
// request path adding to its counters (run under -race), and once the load
// stops a scrape reports exactly what was served.
func TestConcurrentScrapes(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	const readers, each = 4, 40
	var load, scrapers sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(hs.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				var met metricsSnapshot
				err = json.NewDecoder(resp.Body).Decode(&met)
				resp.Body.Close()
				if err != nil || met.Recommend.P99ms < met.Recommend.P50ms {
					t.Errorf("scrape under load: %v, p50 %v p99 %v", err, met.Recommend.P50ms, met.Recommend.P99ms)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		load.Add(1)
		go func(r int) {
			defer load.Done()
			for i := 0; i < each; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/recommend?user=%d&t=%d&n=3", hs.URL, r, i%12))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(r)
	}
	load.Wait()
	close(stop)
	scrapers.Wait()

	var met metricsSnapshot
	getJSON(t, hs.URL+"/metrics", &met)
	if got := met.Recommend.Count.Load(); got != readers*each {
		t.Fatalf("recommend count %d after the load, want %d", got, readers*each)
	}
	if n := met.Cache.Hits.Load() + met.Cache.Misses.Load(); n != readers*each {
		t.Fatalf("cache hits + misses = %d, want %d", n, readers*each)
	}
}
