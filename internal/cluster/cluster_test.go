package cluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tcss/internal/cluster/clustertest"
	"tcss/internal/fault"
	"tcss/internal/wire"
)

// get fetches url and returns (status, body, response).
func get(t *testing.T, url string) (int, []byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp
}

// ownedUsers maps each shard name to one user it owns, scanning the model's
// user range.
func ownedUsers(c *clustertest.Cluster) map[string]int {
	owned := make(map[string]int)
	for u := 0; u < c.Config.Users; u++ {
		name := c.Ring.Owner(u)
		if _, ok := owned[name]; !ok {
			owned[name] = u
		}
	}
	return owned
}

// TestGatewayRoutesBitIdentical drives reads through the gateway and checks
// each lands on the owning shard with a body byte-identical to a standalone
// single-node server over the same model — sharding must not change answers.
func TestGatewayRoutesBitIdentical(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 3, Replicas: 1})
	_, refURL := c.Reference(t)

	for u := 0; u < c.Config.Users; u += 7 {
		q := fmt.Sprintf("/v1/recommend?user=%d&t=2&n=5", u)
		gs, gb, resp := get(t, c.GatewayURL+q)
		rs, rb, _ := get(t, refURL+q)
		if gs != http.StatusOK || rs != http.StatusOK {
			t.Fatalf("user %d: gateway %d, reference %d", u, gs, rs)
		}
		if want := c.Ring.Owner(u); resp.Header.Get("X-Shard") != want {
			t.Fatalf("user %d routed to %q, ring owner is %q", u, resp.Header.Get("X-Shard"), want)
		}
		if !bytes.Equal(gb, rb) {
			t.Fatalf("user %d: gateway body %s != reference body %s", u, gb, rb)
		}
	}
}

// TestFailoverBitIdentical kills a shard primary and checks the gateway
// transparently serves the same bytes from the replica.
func TestFailoverBitIdentical(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 3, Replicas: 1})
	owned := ownedUsers(c)
	sh := c.Shards[0]
	user, ok := owned[sh.Name]
	if !ok {
		t.Skipf("shard %s owns no user below %d", sh.Name, c.Config.Users)
	}
	q := fmt.Sprintf("/v1/recommend?user=%d&t=3&n=5", user)

	_, before, _ := get(t, c.GatewayURL+q)
	sh.Primary.Kill()
	status, after, resp := get(t, c.GatewayURL+q)
	if status != http.StatusOK {
		t.Fatalf("read after primary kill: status %d", status)
	}
	if got := resp.Header.Get("X-Backend"); got != sh.Replicas[0].URL {
		t.Fatalf("served by %q after kill, want replica %q", got, sh.Replicas[0].URL)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failover changed the answer:\n primary: %s\n replica: %s", before, after)
	}

	// Revived primary serves again once its cooldown lapses; in-cooldown it
	// is merely deprioritized, so the replica keeps answering correctly.
	sh.Primary.Revive()
	status, again, _ := get(t, c.GatewayURL+q)
	if status != http.StatusOK || !bytes.Equal(before, again) {
		t.Fatalf("after revive: status %d, body %s", status, again)
	}
}

// TestReplicationShipsGenerations observes through the gateway, syncs, and
// checks the replica lands on the primary's exact generation with
// bit-identical scores.
func TestReplicationShipsGenerations(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 1})
	owned := ownedUsers(c)
	sh := c.Shards[0]
	user, ok := owned[sh.Name]
	if !ok {
		t.Skipf("shard %s owns no user below %d", sh.Name, c.Config.Users)
	}

	body := fmt.Sprintf(`{"checkins":[{"user":%d,"poi":1,"month":2},{"user":%d,"poi":3,"month":5}]}`, user, user)
	resp, err := http.Post(c.GatewayURL+"/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var obs struct {
		Added  int `json:"added"`
		Shards []struct {
			Shard      string `json:"shard"`
			Generation uint64 `json:"generation"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&obs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(obs.Shards) != 1 || obs.Shards[0].Shard != sh.Name {
		t.Fatalf("observe fanout: status %d, %+v", resp.StatusCode, obs)
	}

	primaryGen := sh.Primary.Server.Generation()
	if primaryGen == 0 {
		t.Fatal("observe did not advance the primary generation")
	}
	rep := sh.Replicas[0]
	if rep.Server.Generation() == primaryGen {
		t.Fatal("replica already at primary generation before sync")
	}
	c.MustSync()
	if got := rep.Server.Generation(); got != primaryGen {
		t.Fatalf("replica at generation %d after sync, primary at %d", got, primaryGen)
	}

	// Same generation, same bytes: the replica's direct answer must equal the
	// primary's, post-observe model included.
	q := fmt.Sprintf("/v1/recommend?user=%d&t=2&n=5", user)
	_, pb, _ := get(t, sh.Primary.URL+q)
	_, rb, _ := get(t, rep.URL+q)
	if !bytes.Equal(pb, rb) {
		t.Fatalf("replica diverges from primary at generation %d:\n primary: %s\n replica: %s", primaryGen, pb, rb)
	}
}

// TestCorruptShipmentRejected arms a byte flip in a shipment and checks the
// CRC frame rejects it, the replica keeps its last good generation, and the
// next clean sync recovers.
func TestCorruptShipmentRejected(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 1})
	owned := ownedUsers(c)
	sh := c.Shards[0]
	user, ok := owned[sh.Name]
	if !ok {
		t.Skipf("shard %s owns no user below %d", sh.Name, c.Config.Users)
	}

	body := fmt.Sprintf(`{"checkins":[{"user":%d,"poi":2,"month":4}]}`, user)
	resp, err := http.Post(sh.Primary.URL+"/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: status %d", resp.StatusCode)
	}

	rep := sh.Replicas[0]
	before := rep.Server.Generation()
	sh.Primary.CorruptNextShipment()
	errs := c.Sync()
	if err := errs[rep.Name]; !errors.Is(err, fault.ErrChecksum) {
		t.Fatalf("corrupt shipment: want ErrChecksum, got %v", err)
	}
	if got := rep.Server.Generation(); got != before {
		t.Fatalf("replica moved to generation %d on a corrupt shipment", got)
	}

	var met struct {
		Replication struct {
			Failures         int64 `json:"failures"`
			ChecksumRejected int64 `json:"checksum_rejected"`
		} `json:"replication"`
	}
	_, mb, _ := get(t, rep.URL+"/metrics")
	if err := json.Unmarshal(mb, &met); err != nil {
		t.Fatal(err)
	}
	if met.Replication.ChecksumRejected != 1 || met.Replication.Failures != 1 {
		t.Fatalf("replica replication counters: %+v", met.Replication)
	}

	// The corruption was one-shot: the next sync ships clean and catches up.
	c.MustSync()
	if got, want := rep.Server.Generation(), sh.Primary.Server.Generation(); got != want {
		t.Fatalf("replica at %d after clean sync, primary at %d", got, want)
	}
}

// nodeMetrics scrapes one node's /metrics directly, bypassing the gateway.
func nodeMetrics(t *testing.T, url string) *wire.NodeMetrics {
	t.Helper()
	status, body, _ := get(t, url+"/metrics")
	var doc wire.NodeMetrics
	if err := json.Unmarshal(body, &doc); status != http.StatusOK || err != nil {
		t.Fatalf("scraping %s: status %d, %v", url, status, err)
	}
	return &doc
}

// endpoints lists every node's base URL, primaries and replicas.
func endpoints(c *clustertest.Cluster) []string {
	var urls []string
	for _, sh := range c.Shards {
		urls = append(urls, sh.Primary.URL)
		for _, rep := range sh.Replicas {
			urls = append(urls, rep.URL)
		}
	}
	return urls
}

// TestGatewayMetricsMerge checks the merged /metrics document: counter sums
// across endpoints, cluster percentiles read off the sum of the endpoints'
// latency histograms, and the per-endpoint breakdown.
func TestGatewayMetricsMerge(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 1})

	const reads = 6
	for i := 0; i < reads; i++ {
		status, _, _ := get(t, fmt.Sprintf("%s/v1/recommend?user=%d&t=1&n=3", c.GatewayURL, i))
		if status != http.StatusOK {
			t.Fatalf("read %d: status %d", i, status)
		}
	}
	// One misroute hit directly on a shard (bypassing the gateway): pick a
	// user the first shard does not own.
	foreign := -1
	for u := 0; u < c.Config.Users; u++ {
		if c.Ring.Owner(u) != c.Shards[0].Name {
			foreign = u
			break
		}
	}
	if status, _, _ := get(t, fmt.Sprintf("%s/v1/recommend?user=%d&t=1&n=3", c.Shards[0].Primary.URL, foreign)); status != http.StatusMisdirectedRequest {
		t.Fatalf("direct foreign read: status %d, want 421", status)
	}

	var met struct {
		Shards    int             `json:"shards"`
		Endpoints int             `json:"endpoints"`
		Recommend wire.RouteStats `json:"recommend"`
		Totals    struct {
			Misrouted int64 `json:"misrouted"`
		} `json:"totals"`
		Gateway struct {
			Requests  int64 `json:"requests"`
			Failovers int64 `json:"failovers"`
		} `json:"gateway"`
		PerEndpoint []struct {
			Shard     string `json:"shard"`
			Role      string `json:"role"`
			Recommend int64  `json:"recommend"`
		} `json:"per_endpoint"`
	}
	status, mb, _ := get(t, c.GatewayURL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("merged metrics: status %d", status)
	}
	if err := json.Unmarshal(mb, &met); err != nil {
		t.Fatal(err)
	}
	if met.Shards != 2 || met.Endpoints != 4 {
		t.Fatalf("topology: %d shards, %d endpoints", met.Shards, met.Endpoints)
	}
	// reads via gateway + 1 direct foreign attempt: the request counter sees
	// every arrival including the 421, which never reaches the histogram.
	if met.Recommend.Count.Load() != reads+1 {
		t.Fatalf("merged recommend count %d, want %d", met.Recommend.Count.Load(), reads+1)
	}
	// The merged percentiles are those of the summed histograms — what a
	// scraper adding up the shards' own documents would compute.
	var sum wire.NodeMetrics
	for _, url := range endpoints(c) {
		sum.Add(nodeMetrics(t, url))
	}
	sum.Recommend.Summarize()
	wantHist, _ := json.Marshal(&sum.Recommend.Latency)
	gotHist, _ := json.Marshal(&met.Recommend.Latency)
	if !bytes.Equal(gotHist, wantHist) || sum.Recommend.Latency.Quantile(1) == 0 {
		t.Fatalf("merged recommend histogram %s, sum of the shards' %s", gotHist, wantHist)
	}
	if met.Recommend.P50ms <= 0 || met.Recommend.P50ms != sum.Recommend.P50ms ||
		met.Recommend.P95ms != sum.Recommend.P95ms || met.Recommend.P99ms != sum.Recommend.P99ms {
		t.Fatalf("merged percentiles %v/%v/%v, quantiles of the summed histogram %v/%v/%v",
			met.Recommend.P50ms, met.Recommend.P95ms, met.Recommend.P99ms,
			sum.Recommend.P50ms, sum.Recommend.P95ms, sum.Recommend.P99ms)
	}
	if met.Totals.Misrouted != 1 {
		t.Fatalf("merged misrouted %d, want 1", met.Totals.Misrouted)
	}
	if met.Gateway.Requests != reads {
		t.Fatalf("gateway request counter %d, want %d", met.Gateway.Requests, reads)
	}
	var perShardSum int64
	for _, ep := range met.PerEndpoint {
		if ep.Role == "replica" && ep.Recommend != 0 {
			t.Fatalf("replica %q served %d reads without a failover", ep.Shard, ep.Recommend)
		}
		perShardSum += ep.Recommend
	}
	if perShardSum != reads+1 {
		t.Fatalf("per-endpoint breakdown sums to %d, want %d", perShardSum, reads+1)
	}
}

// TestGatewayMetricsErrorEnvelopeIsUnreachable: a shard that answers /metrics
// with 503 and the error envelope (shedding, or an injected fault) is not a
// node with all-zero counters — it is listed unreachable, left out of the
// breakdown, and the sums are those of the endpoints that did answer.
func TestGatewayMetricsErrorEnvelopeIsUnreachable(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 1})
	for u := 0; u < 8; u++ {
		if status, _, _ := get(t, fmt.Sprintf("%s/v1/recommend?user=%d&t=1&n=3", c.GatewayURL, u)); status != http.StatusOK {
			t.Fatalf("read %d: status %d", u, status)
		}
	}
	down := c.Shards[0].Primary.URL
	var want int64
	for _, url := range endpoints(c) {
		if url != down {
			want += nodeMetrics(t, url).Recommend.Count.Load()
		}
	}
	if lost := nodeMetrics(t, down).Recommend.Count.Load(); lost == 0 || want == 0 {
		t.Fatalf("both shards must have served reads: faulted one %d, others %d", lost, want)
	}
	c.Net.Set(down, fault.NetFault{Status: http.StatusServiceUnavailable})
	defer c.Net.HealAll()

	var met struct {
		Endpoints   int             `json:"endpoints"`
		Unreachable []string        `json:"unreachable"`
		Recommend   wire.RouteStats `json:"recommend"`
		PerEndpoint []struct {
			Endpoint string `json:"endpoint"`
		} `json:"per_endpoint"`
	}
	status, mb, _ := get(t, c.GatewayURL+"/metrics")
	if err := json.Unmarshal(mb, &met); status != http.StatusOK || err != nil {
		t.Fatalf("merged metrics: status %d, %v", status, err)
	}
	if met.Endpoints != 4 || len(met.Unreachable) != 1 || met.Unreachable[0] != down {
		t.Fatalf("%d endpoints, unreachable %v, want 4 and [%s]", met.Endpoints, met.Unreachable, down)
	}
	if len(met.PerEndpoint) != 3 {
		t.Fatalf("per_endpoint lists %d nodes, want the 3 that answered", len(met.PerEndpoint))
	}
	for _, ep := range met.PerEndpoint {
		if ep.Endpoint == down {
			t.Fatalf("%s answered 503 and is still in per_endpoint", down)
		}
	}
	if got := met.Recommend.Count.Load(); got != want {
		t.Fatalf("merged recommend count %d, want the other endpoints' %d", got, want)
	}
}

// TestGatewayMetricsDocumentShape pins the field names of the gateway's
// merged /metrics document the way serve's TestMetricsDocumentShape pins a
// node's: top-level keys, and under each block its keys.
func TestGatewayMetricsDocumentShape(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 1})
	var doc map[string]any
	status, mb, _ := get(t, c.GatewayURL+"/metrics")
	if err := json.Unmarshal(mb, &doc); status != http.StatusOK || err != nil {
		t.Fatalf("merged metrics: status %d, %v", status, err)
	}
	var got []string
	for key, v := range doc {
		if arr, ok := v.([]any); ok && len(arr) > 0 {
			v = arr[0] // "models", "per_endpoint": one block per entry
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
		"endpoints",
		"explain: count latency_buckets_ns p50_ms p95_ms p99_ms",
		"gateway: backend_errors deadline_504 failovers hedge_wins hedges observe_fanouts requests retries retry_budget_exhausted",
		"growth: observe_grown_pois observe_grown_users observe_rejected_compact observe_rejected_out_of_range",
		"models: cache_hits latency_buckets_ns name next_latency_buckets_ns next_requests not_ready_503 requests shadow_agreement_avg shadow_errors shadow_exact_frac shadow_scored",
		"next: count latency_buckets_ns p50_ms p95_ms p99_ms",
		"observe: count latency_buckets_ns p50_ms p95_ms p99_ms",
		"per_endpoint: endpoint explain generation misrouted next observe recommend role shard",
		"recommend: count latency_buckets_ns p50_ms p95_ms p99_ms",
		"replication: applied checksum_rejected failures shipments_served syncs",
		"shards",
		"totals: bad_requests deadline_504 internal_500 misrouted shed_503",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gateway /metrics document shape changed:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}

// TestGatewayHealthRollup walks the cluster health state machine: all-ok,
// degraded (primary write path tripped / primary dead with live replica),
// and down (whole shard unreachable).
func TestGatewayHealthRollup(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 1})

	var health struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
		Shards  []struct {
			Shard  string `json:"shard"`
			Status string `json:"status"`
		} `json:"shards"`
	}
	check := func(wantStatus string, wantHTTP int) {
		t.Helper()
		status, hb, _ := get(t, c.GatewayURL+"/healthz")
		if err := json.Unmarshal(hb, &health); err != nil {
			t.Fatal(err)
		}
		if status != wantHTTP || health.Status != wantStatus {
			t.Fatalf("rollup %q (%d), want %q (%d): %s", health.Status, status, wantStatus, wantHTTP, hb)
		}
	}

	check("ok", http.StatusOK)

	// Dead replica, live primary: still ok — the partition is fully served.
	c.Shards[1].Replicas[0].Kill()
	check("ok", http.StatusOK)
	c.Shards[1].Replicas[0].Revive()

	// Dead primary, live replica: degraded, naming the shard.
	c.Shards[0].Primary.Kill()
	check("degraded", http.StatusOK)
	if len(health.Reasons) != 1 || !strings.Contains(health.Reasons[0], c.Shards[0].Name) {
		t.Fatalf("degraded reasons %v do not name shard %q", health.Reasons, c.Shards[0].Name)
	}

	// Whole shard dead: down, 503 — part of the keyspace is unservable.
	c.Shards[0].Replicas[0].Kill()
	check("down", http.StatusServiceUnavailable)

	c.Shards[0].Primary.Revive()
	c.Shards[0].Replicas[0].Revive()
	check("ok", http.StatusOK)
}

// TestGatewayHealthDegradedBreaker trips a primary's write-path circuit
// breaker via fault injection and checks the shard's degraded state (reads
// fine, writes rejected) surfaces in the cluster rollup with its reason.
func TestGatewayHealthDegradedBreaker(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 0})
	owned := ownedUsers(c)
	sh := c.Shards[0]
	user, ok := owned[sh.Name]
	if !ok {
		t.Skipf("shard %s owns no user below %d", sh.Name, c.Config.Users)
	}

	// Default breaker threshold is 3 consecutive write failures.
	sh.Primary.Faults.FailNext(3, errors.New("injected disk failure"))
	body := fmt.Sprintf(`{"checkins":[{"user":%d,"poi":1,"month":1}]}`, user)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(sh.Primary.URL+"/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("injected write %d: status %d", i, resp.StatusCode)
		}
	}

	status, hb, _ := get(t, c.GatewayURL+"/healthz")
	var health struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("rollup with tripped breaker: %q (%d), body %s", health.Status, status, hb)
	}
	if len(health.Reasons) == 0 || !strings.Contains(health.Reasons[0], sh.Name) {
		t.Fatalf("reasons %v do not name shard %q", health.Reasons, sh.Name)
	}
}

// TestGatewayObserveFanout sends one batch touching every shard and checks
// the gateway splits it by ownership and merges per-shard results.
func TestGatewayObserveFanout(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 3, Replicas: 0})
	owned := ownedUsers(c)
	if len(owned) < 2 {
		t.Skipf("only %d shards own users below %d", len(owned), c.Config.Users)
	}

	var checkins []string
	for _, u := range owned {
		checkins = append(checkins, fmt.Sprintf(`{"user":%d,"poi":1,"month":3}`, u))
	}
	body := `{"checkins":[` + strings.Join(checkins, ",") + `]}`
	resp, err := http.Post(c.GatewayURL+"/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Added  int `json:"added"`
		Shards []struct {
			Shard      string `json:"shard"`
			CheckIns   int    `json:"checkins"`
			Added      int    `json:"added"`
			Generation uint64 `json:"generation"`
			Error      string `json:"error"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fanout observe: status %d", resp.StatusCode)
	}
	if len(out.Shards) != len(owned) {
		t.Fatalf("fanout touched %d shards, want %d", len(out.Shards), len(owned))
	}
	sum := 0
	for _, res := range out.Shards {
		if res.Error != "" {
			t.Fatalf("shard %s: %s", res.Shard, res.Error)
		}
		if res.Generation == 0 {
			t.Fatalf("shard %s did not advance its generation", res.Shard)
		}
		sum += res.Added
	}
	if sum != out.Added {
		t.Fatalf("merged added %d, per-shard sum %d", out.Added, sum)
	}
	// Each primary advanced exactly once; shards owning none of the batch
	// users stayed at generation 0.
	for _, sh := range c.Shards {
		want := uint64(0)
		if _, ok := owned[sh.Name]; ok {
			want = 1
		}
		if got := sh.Primary.Server.Generation(); got != want {
			t.Fatalf("shard %s at generation %d, want %d", sh.Name, got, want)
		}
	}
}

// TestGatewayRejectsBadReads covers the gateway's own 400 path and its
// pass-through of shard client errors.
func TestGatewayRejectsBadReads(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 0})
	if status, _, _ := get(t, c.GatewayURL+"/v1/recommend?user=bogus&t=1"); status != http.StatusBadRequest {
		t.Fatalf("bogus user: status %d, want 400", status)
	}
	// Out-of-range user: shard answers 400, gateway passes it through.
	if status, _, _ := get(t, fmt.Sprintf("%s/v1/recommend?user=%d&t=1", c.GatewayURL, 1<<20)); status != http.StatusBadRequest {
		t.Fatalf("out-of-range user: status %d, want 400", status)
	}
}

// post POSTs a JSON body to url and returns (status, body, response).
func post(t *testing.T, url, body string) (int, []byte, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp
}

// TestGatewayNextRouting drives POST /v1/next through the gateway: requests
// land on the owning shard with bodies byte-identical to a direct read from
// that shard, survive primary failover (the buffered body is replayed against
// the replica), and surface in the merged metrics' next and models blocks.
func TestGatewayNextRouting(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{Shards: 2, Replicas: 1, SeqModel: "STRNN"})
	body := `{"checkins":[{"poi":1,"t":0},{"poi":5,"t":2},{"poi":9,"t":4}]}`

	const reads = 8
	for u := 0; u < reads; u++ {
		q := fmt.Sprintf("/v1/next?user=%d&n=5", u)
		gs, gb, resp := post(t, c.GatewayURL+q, body)
		if gs != http.StatusOK {
			t.Fatalf("user %d: gateway status %d: %s", u, gs, gb)
		}
		shard := c.Ring.Owner(u)
		if got := resp.Header.Get("X-Shard"); got != shard {
			t.Fatalf("user %d routed to %q, ring owner is %q", u, got, shard)
		}
		if got := resp.Header.Get("X-Model"); got != "STRNN" {
			t.Fatalf("user %d: X-Model %q not forwarded", u, got)
		}
		var set *clustertest.Shard
		for _, sh := range c.Shards {
			if sh.Name == shard {
				set = sh
			}
		}
		ds, db, _ := post(t, set.Primary.URL+q, body)
		if ds != http.StatusOK || !bytes.Equal(gb, db) {
			t.Fatalf("user %d: gateway body %s != direct shard body %s (status %d)", u, gb, db, ds)
		}
	}

	// Failover: kill one primary; the buffered POST body must replay against
	// the replica and, with bit-identical seeded models, return the same bytes.
	owned := ownedUsers(c)
	sh := c.Shards[0]
	user, ok := owned[sh.Name]
	if !ok {
		t.Skipf("shard %s owns no user below %d", sh.Name, c.Config.Users)
	}
	q := fmt.Sprintf("/v1/next?user=%d&n=5", user)
	_, before, _ := post(t, c.GatewayURL+q, body)
	sh.Primary.Kill()
	status, after, resp := post(t, c.GatewayURL+q, body)
	if status != http.StatusOK {
		t.Fatalf("next after primary kill: status %d: %s", status, after)
	}
	if got := resp.Header.Get("X-Backend"); got != sh.Replicas[0].URL {
		t.Fatalf("served by %q after kill, want replica %q", got, sh.Replicas[0].URL)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failover changed the answer:\n primary: %s\n replica: %s", before, after)
	}
	sh.Primary.Revive()

	var met struct {
		Next struct {
			Count int64   `json:"count"`
			P99ms float64 `json:"p99_ms"`
		} `json:"next"`
		Models []struct {
			Name         string `json:"name"`
			NextRequests int64  `json:"next_requests"`
		} `json:"models"`
	}
	mstatus, mb, _ := get(t, c.GatewayURL+"/metrics")
	if mstatus != http.StatusOK {
		t.Fatalf("merged metrics: status %d", mstatus)
	}
	if err := json.Unmarshal(mb, &met); err != nil {
		t.Fatal(err)
	}
	if met.Next.Count < reads {
		t.Fatalf("merged next count %d, want >= %d", met.Next.Count, reads)
	}
	if met.Next.P99ms <= 0 {
		t.Fatalf("merged next p99 %v, want > 0", met.Next.P99ms)
	}
	var strnn int64
	for _, mm := range met.Models {
		if mm.Name == "STRNN" {
			strnn = mm.NextRequests
		}
	}
	if strnn < reads {
		t.Fatalf("merged STRNN next_requests %d, want >= %d", strnn, reads)
	}
}
