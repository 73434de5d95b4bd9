package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/lbsn"
)

// makeDataset regenerates the deterministic test dataset for seed.
func makeDataset(t *testing.T, seed int64) *tcss.Dataset {
	t.Helper()
	cfg, err := lbsn.NewPreset("gmu-5k", seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Users, cfg.POIs, cfg.CheckInsPerUser = 40, 36, 18
	ds, err := lbsn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testTrainConfig(seed int64) tcss.Config {
	tcfg := tcss.DefaultConfig()
	tcfg.Epochs = 8
	tcfg.Rank = 5
	tcfg.Seed = seed
	return tcfg
}

// fitRecommender trains a small model for handler tests.
func fitRecommender(t *testing.T, seed int64) *tcss.Recommender {
	t.Helper()
	rec, err := tcss.Fit(makeDataset(t, seed), tcss.Month, testTrainConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// quickOnline keeps observe batches fast in tests.
func quickOnline() tcss.OnlineConfig {
	o := tcss.DefaultOnlineConfig()
	o.Epochs = 3
	return o
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Online == (tcss.OnlineConfig{}) {
		opts.Online = quickOnline()
	}
	srv, err := New(fitRecommender(t, 21), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestRecommendHandler(t *testing.T) {
	srv, hs := newTestServer(t, Options{})

	var got recommendResponse
	resp := getJSON(t, hs.URL+"/v1/recommend?user=3&t=5&n=5", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", resp.Header.Get("X-Cache"))
	}
	if got.User != 3 || got.T != 5 || got.Generation != 0 {
		t.Fatalf("identity fields %+v", got)
	}
	if len(got.Results) == 0 || len(got.Results) > 5 {
		t.Fatalf("got %d results", len(got.Results))
	}
	for i := 1; i < len(got.Results); i++ {
		if got.Results[i].Score > got.Results[i-1].Score {
			t.Fatal("results not sorted by score descending")
		}
	}

	// Bit-identical to the library API for the same snapshot generation: the
	// handler and Recommender.Recommend share the TopNScratch kernel and the
	// OwnPOIs skip set. (No observe has run, so the writer is idle and the
	// recommender still holds the generation-0 state.)
	want := srv.src.(*RecommenderSource).Rec.Recommend(3, 5, 5)
	if len(want) != len(got.Results) {
		t.Fatalf("library returned %d recs, handler %d", len(want), len(got.Results))
	}
	for i := range want {
		if want[i].POI != got.Results[i].POI || want[i].Score != got.Results[i].Score {
			t.Fatalf("rank %d: handler %+v, library %+v", i, got.Results[i], want[i])
		}
	}

	// Second identical request: served from cache, byte-identical.
	respA, err := http.Get(hs.URL + "/v1/recommend?user=3&t=5&n=5")
	if err != nil {
		t.Fatal(err)
	}
	bodyA, _ := io.ReadAll(respA.Body)
	respA.Body.Close()
	if respA.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", respA.Header.Get("X-Cache"))
	}
	wantBody, _ := json.Marshal(&got)
	if string(bodyA) != string(wantBody)+"\n" {
		t.Fatalf("cache hit body %q != miss body %q", bodyA, wantBody)
	}

	// Excluded POIs: the user's own training POIs must never appear.
	own := map[int]bool{}
	for _, j := range srv.snap.load().Side.OwnPOIs[3] {
		own[j] = true
	}
	for _, r := range got.Results {
		if own[r.POI] {
			t.Fatalf("recommended already-visited POI %d", r.POI)
		}
	}
}

func TestRecommendValidation(t *testing.T) {
	_, hs := newTestServer(t, Options{MaxTopN: 7})
	cases := []struct {
		query string
		code  int
	}{
		{"", http.StatusBadRequest},                      // missing user and t
		{"?user=1", http.StatusBadRequest},               // missing t
		{"?user=abc&t=0", http.StatusBadRequest},         // non-integer
		{"?user=100000&t=0", http.StatusBadRequest},      // user out of range
		{"?user=0&t=99", http.StatusBadRequest},          // t out of range
		{"?user=-1&t=0", http.StatusBadRequest},          // negative user
		{"?user=0&t=0&n=notanum", http.StatusBadRequest}, // bad n
		{"?user=0&t=0&n=-3", http.StatusBadRequest},      // negative n
		{"?user=0&t=0", http.StatusOK},                   // defaults applied
	}
	for _, c := range cases {
		resp := getJSON(t, hs.URL+"/v1/recommend"+c.query, nil)
		if resp.StatusCode != c.code {
			t.Errorf("GET /v1/recommend%s = %d, want %d", c.query, resp.StatusCode, c.code)
		}
	}
	// n above MaxTopN is clamped, not rejected.
	var got recommendResponse
	if resp := getJSON(t, hs.URL+"/v1/recommend?user=0&t=0&n=10000", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("oversized n status %d", resp.StatusCode)
	}
	if len(got.Results) > 7 {
		t.Fatalf("n clamp leaked %d results, want <= 7", len(got.Results))
	}
}

func TestExplainHandler(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	var got explainResponse
	resp := getJSON(t, hs.URL+"/v1/explain?user=2&poi=7&t=4", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.User != 2 || got.POI != 7 || got.T != 4 || got.Generation != 0 {
		t.Fatalf("identity fields %+v", got)
	}
	if got.VisitProbability < 0 || got.VisitProbability > 1 {
		t.Fatalf("visit probability %g out of range", got.VisitProbability)
	}
	if got.PeakT < 0 || got.PeakT >= 12 {
		t.Fatalf("peak_t %d out of range", got.PeakT)
	}
	if got.NearestFriendKm != nil && *got.NearestFriendKm < 0 {
		t.Fatalf("negative friend distance %g", *got.NearestFriendKm)
	}
	for _, q := range []string{"?user=2&poi=7", "?user=2&t=1", "?poi=1&t=1", "?user=2&poi=99999&t=1", "?user=2&poi=-1&t=1"} {
		if resp := getJSON(t, hs.URL+"/v1/explain"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/explain%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// findFreshCell locates a (user, poi, month) cell absent from the training
// tensor of the server's current snapshot.
func findFreshCell(t *testing.T, srv *Server) observeCheckIn {
	t.Helper()
	snap := srv.snap.load()
	own := make([]map[int]bool, snap.Model.I)
	for u := range own {
		own[u] = map[int]bool{}
		for _, j := range snap.Side.OwnPOIs[u] {
			own[u][j] = true
		}
	}
	for u := 0; u < snap.Model.I; u++ {
		for j := 0; j < snap.Model.J; j++ {
			if !own[u][j] {
				return observeCheckIn{User: u, POI: j, Month: 3, Week: 13, Hour: 9}
			}
		}
	}
	t.Fatal("no fresh cell available")
	return observeCheckIn{}
}

func postObserve(t *testing.T, url string, body any) (*http.Response, observeResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/observe", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out observeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestObserveHandler(t *testing.T) {
	srv, hs := newTestServer(t, Options{})
	fresh := findFreshCell(t, srv)

	// Recommend once so we can watch the generation change.
	var before recommendResponse
	getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&t=%d", hs.URL, fresh.User, fresh.Month), &before)
	if before.Generation != 0 {
		t.Fatalf("initial generation %d", before.Generation)
	}

	resp, got := postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status %d", resp.StatusCode)
	}
	if got.Added != 1 || got.Generation != 1 {
		t.Fatalf("observe = %+v, want added 1 gen 1", got)
	}

	// The same check-in again is a no-op: no new cell, no new generation.
	resp, got = postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}})
	if resp.StatusCode != http.StatusOK || got.Added != 0 || got.Generation != 1 {
		t.Fatalf("duplicate observe = %d %+v, want 200 added 0 gen 1", resp.StatusCode, got)
	}

	// Reads now serve the new generation — the swap invalidated the cache.
	var after recommendResponse
	resp2 := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&t=%d", hs.URL, fresh.User, fresh.Month), &after)
	if after.Generation != 1 {
		t.Fatalf("post-observe generation %d, want 1", after.Generation)
	}
	if resp2.Header.Get("X-Cache") != "MISS" {
		t.Fatal("snapshot swap must invalidate the response cache")
	}
	// The freshly observed POI is now in the user's own set and excluded.
	for _, r := range after.Results {
		if r.POI == fresh.POI {
			t.Fatalf("observed POI %d still recommended", r.POI)
		}
	}

	// Malformed bodies and negative ids are 400s.
	for name, body := range map[string]string{
		"not json":    "{",
		"empty batch": `{"checkins":[]}`,
		"bad poi":     `{"checkins":[{"user":1,"poi":-4,"month":1}]}`,
		"bad month":   `{"checkins":[{"user":1,"poi":1,"month":40}]}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Out-of-range ids on a node without growth enabled are 409 Conflict —
	// they would be valid at a growth-enabled primary.
	for name, body := range map[string]string{
		"oob user": `{"checkins":[{"user":99999,"poi":1,"month":1}]}`,
		"oob poi":  `{"checkins":[{"user":1,"poi":99999,"month":1}]}`,
		"arrival":  `{"new_users":[{"id":99999}]}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s: status %d, want 409", name, resp.StatusCode)
		}
	}
	if srv.Generation() != 1 {
		t.Fatalf("invalid observes moved the generation to %d", srv.Generation())
	}
}

// TestObserveGrowthBound: a growth-enabled node answers 400, before the
// writer queue, any batch whose ids would grow a dimension by more than
// maxGrowPerBatch rows. An id at MaxInt used to overflow the dimension
// arithmetic and fail in the writer as a 500 that counted toward the
// breaker; a far POI id asked for a distance matrix of ~81 GB. A batch that
// grows by exactly maxGrowPerBatch rows still applies.
func TestObserveGrowthBound(t *testing.T) {
	srv, hs := newTestServer(t, Options{Grow: true})
	J := srv.snap.load().Model.J
	for name, body := range map[string]string{
		"max user id": `{"new_users":[{"id":9223372036854775807}]}`,
		"far poi id":  `{"new_pois":[{"id":100000}]}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	var met metricsSnapshot
	getJSON(t, hs.URL+"/metrics", &met)
	if n := met.Reliability.ObserveFailures.Load(); n != 0 {
		t.Fatalf("observe_failures = %d, want 0: rejected batches must not reach the writer", n)
	}
	if n := met.BadRequests.Load(); n != 2 {
		t.Fatalf("bad_requests = %d, want 2", n)
	}

	edge := observeRequest{NewPOIs: []observePOI{{ID: J + maxGrowPerBatch - 1, Lat: 38.83, Lon: -77.31, Category: 2}}}
	if resp, got := postObserve(t, hs.URL, edge); resp.StatusCode != http.StatusOK || got.POIs != J+maxGrowPerBatch {
		t.Fatalf("growth to J+%d: %d %+v, want 200 with %d POIs", maxGrowPerBatch, resp.StatusCode, got, J+maxGrowPerBatch)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	var health healthResponse
	if resp := getJSON(t, hs.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Generation != 0 || health.AgeSeconds < 0 {
		t.Fatalf("healthz = %+v", health)
	}

	// Generate traffic: two distinct recommends, one repeated (cache hit),
	// one bad request.
	getJSON(t, hs.URL+"/v1/recommend?user=1&t=1", nil)
	getJSON(t, hs.URL+"/v1/recommend?user=2&t=1", nil)
	getJSON(t, hs.URL+"/v1/recommend?user=1&t=1", nil)
	getJSON(t, hs.URL+"/v1/recommend?user=notanum&t=1", nil)
	getJSON(t, hs.URL+"/v1/explain?user=1&poi=1&t=1", nil)

	var met metricsSnapshot
	if resp := getJSON(t, hs.URL+"/metrics", &met); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if met.Recommend.Count.Load() != 4 {
		t.Fatalf("recommend count %d, want 4", met.Recommend.Count.Load())
	}
	if met.Explain.Count.Load() != 1 {
		t.Fatalf("explain count %d, want 1", met.Explain.Count.Load())
	}
	if met.BadRequests.Load() != 1 {
		t.Fatalf("bad requests %d, want 1", met.BadRequests.Load())
	}
	if met.Cache.Hits.Load() != 1 || met.Cache.Misses.Load() != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2", met.Cache.Hits.Load(), met.Cache.Misses.Load())
	}
	if want := 1.0 / 3.0; met.Cache.HitRate != want {
		t.Fatalf("hit rate %g, want %g", met.Cache.HitRate, want)
	}
	if met.Recommend.P50ms < 0 || met.Recommend.P99ms < met.Recommend.P50ms {
		t.Fatalf("latency percentiles inconsistent: %+v", &met.Recommend)
	}
	if met.Admission.MaxInflight <= 0 || met.UptimeSeconds < 0 {
		t.Fatalf("metrics sanity: %+v", &met)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	_, hs := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	resp := getJSON(t, hs.URL+"/v1/recommend?user=0&t=0", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var met metricsSnapshot
	getJSON(t, hs.URL+"/metrics", &met)
	if met.DeadlineMissed.Load() == 0 {
		t.Fatal("deadline_504 counter not incremented")
	}
}

func TestQueueOverflowSheds503(t *testing.T) {
	entered := make(chan struct{}, 8)
	hold := make(chan struct{})
	opts := Options{
		MaxInflight: 1,
		MaxQueue:    1,
		RetryAfter:  3 * time.Second,
		CacheSize:   -1, // every request must reach admission
	}
	opts.holdForTest = func() { entered <- struct{}{}; <-hold }
	srv, hs := newTestServer(t, opts)

	type result struct {
		code int
		err  error
	}
	results := make(chan result, 2)
	do := func(user int) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/recommend?user=%d&t=0", hs.URL, user))
		if err != nil {
			results <- result{err: err}
			return
		}
		resp.Body.Close()
		results <- result{code: resp.StatusCode}
	}

	// A takes the only scoring slot and parks inside the handler.
	go do(0)
	<-entered
	// B fills the single queue slot (blocked in acquire, before the hook).
	go do(1)
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// C overflows the bounded queue: immediate 503 with Retry-After.
	resp, err := http.Get(hs.URL + "/v1/recommend?user=2&t=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After = %q, want 3", resp.Header.Get("Retry-After"))
	}

	// Release the holds; A and B must both complete successfully.
	close(hold)
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil || r.code != http.StatusOK {
				t.Fatalf("held request finished %d (%v)", r.code, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("held requests did not finish")
		}
	}
}

func TestSnapshotSaveAndRestart(t *testing.T) {
	path := t.TempDir() + "/snap.json"
	srv, hs := newTestServer(t, Options{SnapshotPath: path})

	// Advance to generation 1, then persist.
	fresh := findFreshCell(t, srv)
	if resp, got := postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}}); resp.StatusCode != http.StatusOK || got.Generation != 1 {
		t.Fatalf("observe failed: %d %+v", resp.StatusCode, got)
	}
	var saved saveResponse
	resp, err := http.Post(hs.URL+"/v1/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || saved.Generation != 1 || saved.Path != path {
		t.Fatalf("save = %d %+v", resp.StatusCode, saved)
	}

	// Restart: load the persisted model, reattach it to the (pristine,
	// regenerated) dataset, and continue the generation counter. The
	// factors are the generation-1 factors; the training split is
	// reproduced from the seed, so for every user except the one whose
	// check-in was observed the skip set — and therefore the response —
	// is bit-identical to the running server's.
	m, gen, err := core.LoadFileVersioned(path)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("persisted generation %d, want 1", gen)
	}
	rec2, err := tcss.AttachModel(m, makeDataset(t, 21), tcss.Month, testTrainConfig(21), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := New(rec2, Options{FirstGeneration: gen, Online: quickOnline()})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	hs2 := httptest.NewServer(restarted.Handler())
	defer hs2.Close()

	var health healthResponse
	getJSON(t, hs2.URL+"/healthz", &health)
	if health.Generation != 1 {
		t.Fatalf("restarted generation %d, want 1", health.Generation)
	}
	otherUser := (fresh.User + 1) % m.I
	q := fmt.Sprintf("/v1/recommend?user=%d&t=2&n=8", otherUser)
	var a, b recommendResponse
	getJSON(t, hs.URL+q, &a)
	getJSON(t, hs2.URL+q, &b)
	if len(a.Results) == 0 || len(a.Results) != len(b.Results) {
		t.Fatalf("restart changed result count %d -> %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("rank %d: %+v before restart, %+v after", i, a.Results[i], b.Results[i])
		}
	}

	// Save without a configured path is a 400.
	_, hsNoPath := newTestServer(t, Options{})
	resp, err = http.Post(hsNoPath.URL+"/v1/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unconfigured save status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsDocumentShape pins the field names of the /metrics document a
// standalone node with default options serves: the top-level keys, and under
// each block its keys (fields marked omitempty are absent here). Dashboards,
// loadgen and the gateway's merger read these names, so adding or removing one
// is a contract change and has to be made in this list too.
func TestMetricsDocumentShape(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	var doc map[string]any
	if resp := getJSON(t, hs.URL+"/metrics", &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var got []string
	for key, v := range doc {
		if arr, ok := v.([]any); ok && len(arr) > 0 {
			v = arr[0] // "models": one block per registered model
		}
		block, ok := v.(map[string]any)
		if !ok {
			got = append(got, key)
			continue
		}
		var fields []string
		for f := range block {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		got = append(got, key+": "+strings.Join(fields, " "))
	}
	sort.Strings(got)
	want := []string{
		"admission: deadline_budget_clamped inflight max_inflight max_queue queued",
		"bad_requests",
		"cache: entries hit_rate hits misses",
		"coalesce: avg_batch_size batch_size_counts batches requests",
		"deadline_504",
		"explain: count latency_buckets_ns p50_ms p95_ms p99_ms",
		"internal_500",
		"model: bytes_per_user factor_bytes pois storage users",
		"model_404",
		"model_not_ready_503",
		"models: cache_hits generation latency_buckets_ns name next_latency_buckets_ns next_p50_ms next_p95_ms next_p99_ms next_requests not_ready_503 p50_ms p95_ms p99_ms requests roles shadow",
		"next: count latency_buckets_ns p50_ms p95_ms p99_ms",
		"observe: count latency_buckets_ns p50_ms p95_ms p99_ms",
		"observe_pipeline: applied cells_added grow_enabled noop observe_grown_pois observe_grown_users observe_rejected_compact observe_rejected_out_of_range queue_capacity queue_length",
		"recommend: count latency_buckets_ns p50_ms p95_ms p99_ms",
		"reliability: breaker_recoveries breaker_rejected breaker_state breaker_trips checksum_rejected_loads observe_failures save_failures save_retries",
		"replication: applied checksum_rejected failures shipments_served syncs",
		"routing: primary",
		"shard: misrouted",
		"shed_503",
		"snapshot: age_seconds generation saves swaps",
		"uptime_seconds",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/metrics document shape changed:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}

// TestOnlineOptionsAllOrNothing: an all-zero Options.Online means the
// defaults; one that sets anything must carry its own Epochs, because
// replacing a partly filled struct with the defaults whole would boot the
// three literals below with decay off, random growth off and seed 0.
func TestOnlineOptionsAllOrNothing(t *testing.T) {
	rec := fitRecommender(t, 21) // a rejected New never touches it
	for _, tc := range []struct {
		online tcss.OnlineConfig
		field  string
	}{
		{tcss.OnlineConfig{DecayHalfLife: 8}, "Online.Epochs"},
		{tcss.OnlineConfig{RandomGrowth: true}, "Online.Epochs"},
		{tcss.OnlineConfig{Seed: 7}, "Online.Epochs"},
	} {
		srv, err := New(rec, Options{Online: tc.online})
		if err == nil {
			srv.Close()
			t.Fatalf("Online %+v booted; want an error", tc.online)
		}
		if !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), "tcss.DefaultOnlineConfig()") {
			t.Fatalf("Online %+v: error %q must name %s and the defaults to start from", tc.online, err, tc.field)
		}
	}
	for _, opts := range []Options{{}, {Online: quickOnline()}} {
		srv, err := New(fitRecommender(t, 21), opts)
		if err != nil {
			t.Fatalf("Options %+v: %v", opts.Online, err)
		}
		want := opts.Online
		if want == (tcss.OnlineConfig{}) {
			want = tcss.DefaultOnlineConfig()
		}
		if srv.opts.Online != want {
			t.Fatalf("served Online %+v, want %+v", srv.opts.Online, want)
		}
		srv.Close()
	}
}
