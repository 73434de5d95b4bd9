package cluster

import (
	"testing"
	"time"
)

// TestDownMarkSweep checks expired down marks are actually deleted — by the
// sweep on markDown and by the expiry check in isDown — so the map stays
// bounded across long deployments with churning endpoints.
func TestDownMarkSweep(t *testing.T) {
	now := time.Unix(0, 0)
	g, err := NewGateway(
		[]ShardSet{{Name: "s0", Primary: "http://primary"}},
		GatewayOptions{Now: func() time.Time { return now }},
	)
	if err != nil {
		t.Fatal(err)
	}

	g.markDown("http://a")
	g.markDown("http://b")
	if got := g.downLen(); got != 2 {
		t.Fatalf("down map holds %d marks, want 2", got)
	}

	// Past the 2s default cooldown: the next markDown sweeps both expired
	// marks, leaving only the fresh one.
	now = now.Add(3 * time.Second)
	g.markDown("http://c")
	if got := g.downLen(); got != 1 {
		t.Fatalf("down map holds %d marks after sweep, want 1", got)
	}
	if g.isDown("http://a") || g.isDown("http://b") {
		t.Fatal("swept endpoints still report down")
	}
	if !g.isDown("http://c") {
		t.Fatal("fresh mark not reported down")
	}

	// isDown on an expired mark deletes it too.
	now = now.Add(3 * time.Second)
	if g.isDown("http://c") {
		t.Fatal("expired mark still reported down")
	}
	if got := g.downLen(); got != 0 {
		t.Fatalf("down map holds %d marks after full expiry, want 0", got)
	}
}

// TestRetryBudgetRefill exercises the token bucket directly: the burst is
// spendable immediately, refill accrues with elapsed time, and tokens never
// exceed the burst cap.
func TestRetryBudgetRefill(t *testing.T) {
	b := &retryBudget{tokens: 2, burst: 2, rate: 1}
	now := time.Unix(0, 0)

	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst tokens not spendable")
	}
	if b.allow(now) {
		t.Fatal("empty bucket allowed a retry")
	}

	// 1.5s at 1 token/s refills 1.5 tokens: one retry allowed, not two.
	now = now.Add(1500 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("refilled bucket refused a retry")
	}
	if b.allow(now) {
		t.Fatal("bucket allowed more retries than the refill")
	}

	// A long idle period caps at burst, never beyond it.
	now = now.Add(time.Hour)
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("capped bucket refused its burst")
	}
	if b.allow(now) {
		t.Fatal("bucket exceeded its burst cap after idling")
	}
}

// downLen reports the current down-mark count (tests assert the sweep).
func (g *Gateway) downLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.down)
}

// PrimaryGeneration returns the newest generation the primary has advertised
// to this replicator (zero before the first reachable sync). Declared in a
// test file of package cluster, it is visible to the cluster_test chaos
// tests.
func (r *Replicator) PrimaryGeneration() uint64 { return r.primaryGen.Load() }
