package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"tcss/internal/cluster"
	"tcss/internal/cluster/clustertest"
	"tcss/internal/fault"
)

// gwMetrics decodes the merged /metrics gateway block the chaos suites
// assert on.
type gwMetrics struct {
	Gateway struct {
		Requests             int64 `json:"requests"`
		Failovers            int64 `json:"failovers"`
		BackendErrors        int64 `json:"backend_errors"`
		Retries              int64 `json:"retries"`
		RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
		Hedges               int64 `json:"hedges"`
		HedgeWins            int64 `json:"hedge_wins"`
		DeadlineMissed       int64 `json:"deadline_504"`
	} `json:"gateway"`
}

func scrapeGateway(t *testing.T, c *clustertest.Cluster) gwMetrics {
	t.Helper()
	status, mb, _ := get(t, c.GatewayURL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("merged metrics: status %d", status)
	}
	var met gwMetrics
	if err := json.Unmarshal(mb, &met); err != nil {
		t.Fatal(err)
	}
	return met
}

// TestChaosSeededSchedule drives the cluster through a seeded fault schedule
// — partition the primary from the gateway, hang a replica, tear snapshot
// shipments mid-body, heal — and holds the resilience invariants throughout:
// every 200 is bit-identical to a standalone reference over the same model,
// retries stay bounded (no storm, no budget exhaustion), no read misses its
// deadline budget, and the cluster reconverges to the primary's exact
// generation after healing.
func TestChaosSeededSchedule(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{
		Shards: 2, Replicas: 2, Seed: 97,
		Gateway: cluster.GatewayOptions{
			PerTryTimeout: 150 * time.Millisecond,
			RetryBurst:    50,
			RetryRate:     0.0001, // effectively no refill: retries draw down a fixed pool
		},
	})
	_, refURL := c.Reference(t)
	owned := ownedUsers(c)
	sh := c.Shards[0]
	if _, ok := owned[sh.Name]; !ok {
		t.Skipf("shard %s owns no user below %d", sh.Name, c.Config.Users)
	}

	// verify reads every shard's owned user through the gateway and demands a
	// 200 bit-identical to the reference — under every fault phase.
	verify := func(phase string) {
		t.Helper()
		for name, u := range owned {
			q := fmt.Sprintf("/v1/recommend?user=%d&t=2&n=5", u)
			gs, gb, _ := get(t, c.GatewayURL+q)
			rs, rb, _ := get(t, refURL+q)
			if gs != http.StatusOK || rs != http.StatusOK {
				t.Fatalf("[%s] shard %s user %d: gateway %d, reference %d: %s", phase, name, u, gs, rs, gb)
			}
			if !bytes.Equal(gb, rb) {
				t.Fatalf("[%s] shard %s user %d: gateway body %s != reference %s", phase, name, u, gb, rb)
			}
		}
	}

	verify("baseline")
	c.MustSync()

	// Phase 1: one-way partition — the gateway cannot reach shard-0's primary,
	// but the primary is alive and replicas still sync from it.
	c.Net.Partition(sh.Primary.URL)
	verify("partitioned primary")
	c.MustSync() // replication is unaffected: the partition is gateway-side only

	// Phase 2: additionally hang replica-1 at the gateway. Reads fail over
	// past the partitioned primary and the hung replica (bounded by the
	// per-try timeout) to replica-2.
	c.Net.Set(sh.Replicas[0].URL, fault.NetFault{Hang: true})
	verify("partitioned primary + hung replica")

	// Phase 3: torn shipment burst. Heal the gateway path; arm one silent
	// corruption and one mid-body truncation on replica-1's own path to the
	// primary. An observe advances the primary so there is a real snapshot to
	// ship; both torn shipments must fail without moving the replica.
	c.Net.HealAll()
	user := owned[sh.Name]
	status, _, _ := post(t, c.GatewayURL+"/v1/observe",
		fmt.Sprintf(`{"checkins":[{"user":%d,"poi":2,"month":3}]}`, user))
	if status != http.StatusOK {
		t.Fatalf("observe through healed gateway: status %d", status)
	}
	rep := sh.Replicas[0]
	before := rep.Server.Generation()
	rep.Net.Schedule(sh.Primary.URL, []fault.NetFault{
		{CorruptByte: 100, Count: 1},
		{TruncateBody: 64, Count: 1},
	})
	for i := 0; i < 2; i++ {
		errs := c.Sync()
		if errs[rep.Name] == nil {
			t.Fatalf("torn shipment %d applied cleanly", i)
		}
		if got := rep.Server.Generation(); got != before {
			t.Fatalf("replica advanced to generation %d on a torn shipment", got)
		}
	}

	// Phase 4: heal everything and reconverge. The drained schedule ships
	// clean; every node lands on the primary's exact generation and the
	// replica's direct answer matches the primary's byte for byte.
	c.MustSync()
	wantGen := sh.Primary.Server.Generation()
	for _, r := range sh.Replicas {
		if got := r.Server.Generation(); got != wantGen {
			t.Fatalf("replica %s at generation %d after heal, primary at %d", r.Name, got, wantGen)
		}
	}
	q := fmt.Sprintf("/v1/recommend?user=%d&t=2&n=5", user)
	_, pb, _ := get(t, sh.Primary.URL+q)
	_, rb, _ := get(t, rep.URL+q)
	if !bytes.Equal(pb, rb) {
		t.Fatalf("replica diverges after reconvergence:\n primary: %s\n replica: %s", pb, rb)
	}
	gs, gb, _ := get(t, c.GatewayURL+q)
	if gs != http.StatusOK || !bytes.Equal(gb, pb) {
		t.Fatalf("gateway after heal: status %d, body %s, primary %s", gs, gb, pb)
	}

	// Invariants over the whole schedule: faults really fired, failovers
	// happened, and retries stayed bounded — the near-zero refill rate means
	// the retry counter is a hard ceiling on amplification. Nothing 504ed and
	// the budget never ran dry: the schedule degraded gracefully.
	if c.Net.Injected() == 0 {
		t.Fatal("no gateway-side fault ever fired")
	}
	if rep.Net.Injected() != 2 {
		t.Fatalf("replica-side faults fired %d times, want 2", rep.Net.Injected())
	}
	met := scrapeGateway(t, c)
	if met.Gateway.Failovers == 0 {
		t.Fatal("no read failed over during the schedule")
	}
	if met.Gateway.Retries < 2 || met.Gateway.Retries > 10 {
		t.Fatalf("gateway retries %d, want a small bounded count (2..10)", met.Gateway.Retries)
	}
	if met.Gateway.RetryBudgetExhausted != 0 {
		t.Fatalf("retry budget exhausted %d times under a bounded schedule", met.Gateway.RetryBudgetExhausted)
	}
	if met.Gateway.DeadlineMissed != 0 {
		t.Fatalf("%d reads missed their deadline budget", met.Gateway.DeadlineMissed)
	}
}

// TestChaosRetryBudgetBoundsRetries blacks out a whole shard and checks the
// token bucket turns unbounded retry amplification into bounded work: the
// first reads spend the burst failing over, then further reads are refused
// with 503 + Retry-After instead of hammering dead endpoints.
func TestChaosRetryBudgetBoundsRetries(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{
		Shards: 1, Replicas: 1, Seed: 31,
		Gateway: cluster.GatewayOptions{
			RetryBurst:    2,
			RetryRate:     0.0001,
			PerTryTimeout: 100 * time.Millisecond,
		},
	})
	sh := c.Shards[0]
	c.Net.Partition(sh.Primary.URL)
	c.Net.Partition(sh.Replicas[0].URL)

	q := c.GatewayURL + "/v1/recommend?user=1&t=1&n=3"
	var exhausted int
	for i := 0; i < 5; i++ {
		status, body, resp := get(t, q)
		switch status {
		case http.StatusBadGateway:
			// Burst tokens still available: both candidates were tried.
		case http.StatusServiceUnavailable:
			exhausted++
			if resp.Header.Get("Retry-After") != "1" {
				t.Fatalf("read %d: 503 without Retry-After: %s", i, body)
			}
		default:
			t.Fatalf("read %d against a dead shard: status %d: %s", i, status, body)
		}
	}
	if exhausted < 3 {
		t.Fatalf("only %d of 5 reads hit the drained retry budget, want >= 3", exhausted)
	}

	met := scrapeGateway(t, c)
	if met.Gateway.Retries != 2 {
		t.Fatalf("gateway spent %d retries, want exactly the burst (2)", met.Gateway.Retries)
	}
	if met.Gateway.RetryBudgetExhausted < 3 {
		t.Fatalf("retry_budget_exhausted %d, want >= 3", met.Gateway.RetryBudgetExhausted)
	}
}

// TestChaosHedgedReads slows the primary far past the hedge delay and checks
// the hedged candidate answers first with the identical bytes, the hedge
// counters advance, and the winner is the replica.
func TestChaosHedgedReads(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{
		Shards: 1, Replicas: 1, Seed: 53,
		Gateway: cluster.GatewayOptions{
			Hedge:      true,
			HedgeDelay: 5 * time.Millisecond,
		},
	})
	_, refURL := c.Reference(t)
	sh := c.Shards[0]
	c.Net.Set(sh.Primary.URL, fault.NetFault{Latency: 500 * time.Millisecond})

	q := "/v1/recommend?user=1&t=2&n=5"
	start := time.Now()
	gs, gb, resp := get(t, c.GatewayURL+q)
	elapsed := time.Since(start)
	if gs != http.StatusOK {
		t.Fatalf("hedged read: status %d: %s", gs, gb)
	}
	if got := resp.Header.Get("X-Backend"); got != sh.Replicas[0].URL {
		t.Fatalf("hedged read served by %q, want replica %q", got, sh.Replicas[0].URL)
	}
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("hedged read took %v — it waited out the slow primary", elapsed)
	}
	_, rb, _ := get(t, refURL+q)
	if !bytes.Equal(gb, rb) {
		t.Fatalf("hedged answer %s != reference %s", gb, rb)
	}

	met := scrapeGateway(t, c)
	if met.Gateway.Hedges < 1 || met.Gateway.HedgeWins < 1 {
		t.Fatalf("hedge counters: hedges=%d hedge_wins=%d, want both >= 1",
			met.Gateway.Hedges, met.Gateway.HedgeWins)
	}
}

// TestChaosDeadlineBudget hangs every endpoint of a shard and checks the
// read dies by its deadline budget — a 504 in roughly budget time, not a
// wedge — both with the configured default and with a client-supplied
// X-Deadline-Budget header. It then heals and checks the per-hop budget the
// gateway stamps onto backends actually clamps their admission deadline.
func TestChaosDeadlineBudget(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{
		Shards: 1, Replicas: 2, Seed: 71,
		Gateway: cluster.GatewayOptions{
			ReadBudget:    150 * time.Millisecond,
			PerTryTimeout: 80 * time.Millisecond,
			RetryBurst:    100,
		},
	})
	sh := c.Shards[0]
	c.Net.Set(sh.Primary.URL, fault.NetFault{Hang: true})
	for _, rep := range sh.Replicas {
		c.Net.Set(rep.URL, fault.NetFault{Hang: true})
	}

	q := c.GatewayURL + "/v1/recommend?user=1&t=1&n=3"
	start := time.Now()
	status, body, _ := get(t, q)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("read against hung shard: status %d, want 504: %s", status, body)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("504 took %v, want roughly the 150ms budget", elapsed)
	}

	// Client-supplied budget: the header overrides the configured default, so
	// a caller with 100ms to spend is told 504 within that order of time even
	// if the gateway default were much larger.
	req, err := http.NewRequest(http.MethodGet, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.DeadlineBudgetHeader, "100")
	start = time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed = time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("read with 100ms header budget: status %d, want 504", resp.StatusCode)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("header-budgeted 504 took %v", elapsed)
	}

	met := scrapeGateway(t, c)
	if met.Gateway.DeadlineMissed < 2 {
		t.Fatalf("deadline_504 %d, want >= 2", met.Gateway.DeadlineMissed)
	}

	// Healed: a normal read flows again, and because the gateway stamps its
	// 80ms per-hop budget onto the backend (far under the node's 2s default
	// request timeout), the node's admission clamps — deadline propagation
	// reaches all the way into the shard.
	c.Net.HealAll()
	if status, body, _ := get(t, q); status != http.StatusOK {
		t.Fatalf("read after heal: status %d: %s", status, body)
	}
	var nodeMet struct {
		Admission struct {
			BudgetClamped int64 `json:"deadline_budget_clamped"`
		} `json:"admission"`
	}
	_, mb, _ := get(t, sh.Primary.URL+"/metrics")
	if err := json.Unmarshal(mb, &nodeMet); err != nil {
		t.Fatal(err)
	}
	if nodeMet.Admission.BudgetClamped < 1 {
		t.Fatalf("primary deadline_budget_clamped %d, want >= 1", nodeMet.Admission.BudgetClamped)
	}
}

// TestChaosStalenessDegradedHealth bounds replica staleness: a replica that
// learns (via shipment response headers) that its primary is more than
// MaxGenLag generations ahead reports degraded health naming the lag, and
// recovers to ok once a clean sync catches it up.
func TestChaosStalenessDegradedHealth(t *testing.T) {
	cfg := clustertest.Config{Shards: 1, Replicas: 1, Seed: 41}
	cfg.Serve.MaxGenLag = 1
	c := clustertest.New(t, cfg)
	sh := c.Shards[0]
	rep := sh.Replicas[0]

	// Two observes directly on the primary: generation 2, replica still at 0.
	for i := 0; i < 2; i++ {
		status, body, _ := post(t, sh.Primary.URL+"/v1/observe",
			fmt.Sprintf(`{"checkins":[{"user":1,"poi":%d,"month":3}]}`, 2+i))
		if status != http.StatusOK {
			t.Fatalf("observe %d: status %d: %s", i, status, body)
		}
	}

	// A corrupted shipment fails to apply, but its response headers still
	// carry the primary's generation — the replica now knows it is 2 behind.
	rep.Net.Set(sh.Primary.URL, fault.NetFault{CorruptByte: 100, Count: 1})
	if errs := c.Sync(); errs[rep.Name] == nil {
		t.Fatal("corrupted shipment applied cleanly")
	}
	if got := rep.Repl.PrimaryGeneration(); got != 2 {
		t.Fatalf("replicator saw primary generation %d, want 2", got)
	}

	var health struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
		GenLag uint64 `json:"generation_lag"`
	}
	_, hb, _ := get(t, rep.URL+"/healthz")
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.GenLag != 2 {
		t.Fatalf("stale replica health: %s", hb)
	}
	if want := "staleness: 2 generations behind primary (bound 1)"; health.Reason != want {
		t.Fatalf("degraded reason %q, want %q", health.Reason, want)
	}

	// The staleness also shows in the replica's own metrics document.
	var met struct {
		Replication struct {
			PrimaryGeneration uint64 `json:"primary_generation"`
			GenerationLag     uint64 `json:"generation_lag"`
			MaxGenLag         uint64 `json:"max_generation_lag"`
		} `json:"replication"`
	}
	_, mb, _ := get(t, rep.URL+"/metrics")
	if err := json.Unmarshal(mb, &met); err != nil {
		t.Fatal(err)
	}
	if met.Replication.PrimaryGeneration != 2 || met.Replication.GenerationLag != 2 || met.Replication.MaxGenLag != 1 {
		t.Fatalf("replica staleness metrics: %+v", met.Replication)
	}

	// A clean sync catches up and health returns to ok with zero lag
	// (generation_lag is omitempty, so clear the stale decode first).
	c.MustSync()
	health.Status, health.Reason, health.GenLag = "", "", 0
	_, hb, _ = get(t, rep.URL+"/healthz")
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.GenLag != 0 {
		t.Fatalf("replica health after clean sync: %s", hb)
	}
}

// TestChaosFreshnessPreferred checks the gateway routes reads to the
// freshest backend it knows about: after it has observed a replica serving a
// newer generation than anything else it has seen, that replica is tried
// first — ahead of the primary's base-order precedence.
func TestChaosFreshnessPreferred(t *testing.T) {
	clock := struct {
		mu  chan struct{}
		now time.Time
	}{mu: make(chan struct{}, 1), now: time.Unix(1000, 0)}
	clock.mu <- struct{}{}
	now := func() time.Time {
		<-clock.mu
		t := clock.now
		clock.mu <- struct{}{}
		return t
	}
	advance := func(d time.Duration) {
		<-clock.mu
		clock.now = clock.now.Add(d)
		clock.mu <- struct{}{}
	}

	c := clustertest.New(t, clustertest.Config{
		Shards: 1, Replicas: 2, Seed: 67,
		Gateway: cluster.GatewayOptions{
			Now:           now,
			PerTryTimeout: 100 * time.Millisecond,
		},
	})
	sh := c.Shards[0]
	repFresh := sh.Replicas[1] // deliberately the *last* base-order candidate

	// Advance the primary two generations and sync only replica-2.
	for i := 0; i < 2; i++ {
		status, body, _ := post(t, sh.Primary.URL+"/v1/observe",
			fmt.Sprintf(`{"checkins":[{"user":1,"poi":%d,"month":3}]}`, 2+i))
		if status != http.StatusOK {
			t.Fatalf("observe %d: status %d: %s", i, status, body)
		}
	}
	if _, _, err := repFresh.Repl.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Partition the primary and replica-1: the read fails over to replica-2,
	// and the gateway learns from its X-Generation header how fresh it is.
	c.Net.Partition(sh.Primary.URL)
	c.Net.Partition(sh.Replicas[0].URL)
	q := c.GatewayURL + "/v1/recommend?user=1&t=1&n=3"
	status, body, resp := get(t, q)
	if status != http.StatusOK || resp.Header.Get("X-Backend") != repFresh.URL {
		t.Fatalf("read under partition: status %d backend %q: %s", status, resp.Header.Get("X-Backend"), body)
	}
	if resp.Header.Get("X-Generation") != "2" {
		t.Fatalf("fresh replica answered generation %q, want 2", resp.Header.Get("X-Generation"))
	}

	// Heal and let the down marks expire. Every endpoint is reachable again,
	// but replica-2 is the freshest generation the gateway has ever seen on
	// this shard — so it is tried first, ahead of the (stale) primary record.
	c.Net.HealAll()
	advance(5 * time.Second)
	status, body, resp = get(t, q)
	if status != http.StatusOK {
		t.Fatalf("read after heal: status %d: %s", status, body)
	}
	if got := resp.Header.Get("X-Backend"); got != repFresh.URL {
		t.Fatalf("read after heal served by %q, want freshest replica %q", got, repFresh.URL)
	}
	// And the bytes are the primary's exact generation-2 answer.
	_, pb, _ := get(t, sh.Primary.URL+"/v1/recommend?user=1&t=1&n=3")
	if !bytes.Equal(body, pb) {
		t.Fatalf("freshest replica body %s != primary body %s", body, pb)
	}
}
