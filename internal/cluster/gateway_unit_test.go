package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestGatewayReusesBackendConnections sends 200 rounds of 8 concurrent reads
// through a gateway built with a nil Client to one backend, which answers a
// round only once all 8 hops have arrived, and bounds the connections the
// backend accepts. A client that keeps two idle connections per host closes
// six at the end of each round and dials six anew at the start of the next.
func TestGatewayReusesBackendConnections(t *testing.T) {
	const readers, rounds = 8, 200
	var mu sync.Mutex
	arrived, release := 0, make(chan struct{})
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		wait := release
		if arrived++; arrived == readers {
			close(release)
			arrived, release = 0, make(chan struct{})
		}
		mu.Unlock()
		<-wait
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	ln := &countingListener{Listener: backend.Listener}
	backend.Listener = ln
	backend.Start()
	defer backend.Close()

	g, err := NewGateway([]ShardSet{{Name: "s0", Primary: backend.URL}}, GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.opts.Client.CloseIdleConnections()
	codes := make([]int, readers)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/recommend?user=1&t=0", nil))
				codes[c] = rec.Code
			}()
		}
		wg.Wait()
		for _, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("round %d: a read through the gateway answered %d", round, code)
			}
		}
	}
	if got := ln.accepted.Load(); got > 2*readers {
		t.Fatalf("the backend accepted %d connections for %d reads, want at most %d", got, readers*rounds, 2*readers)
	}
}
