package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tcss/internal/cluster"
)

// recordingBackend captures every request body it receives, then answers
// with a fixed status and body.
type recordingBackend struct {
	mu      sync.Mutex
	bodies  [][]byte
	budgets []string
	status  int
	reply   string
}

func (b *recordingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	raw, _ := io.ReadAll(r.Body)
	b.mu.Lock()
	b.bodies = append(b.bodies, raw)
	b.budgets = append(b.budgets, r.Header.Get(cluster.DeadlineBudgetHeader))
	b.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(b.status)
	io.WriteString(w, b.reply)
}

func (b *recordingBackend) snapshot() ([][]byte, []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]byte(nil), b.bodies...), append([]string(nil), b.budgets...)
}

// TestGatewayNextFailoverReplaysBody pins down the POST /v1/next failover
// contract at the wire level: when the primary answers a retriable status,
// the gateway replays the buffered request body byte-identically to the
// replica, tags the response with the winning backend, relays the winner's
// bytes untouched, and stamps a deadline budget onto both hops.
func TestGatewayNextFailoverReplaysBody(t *testing.T) {
	primary := &recordingBackend{status: http.StatusServiceUnavailable, reply: `{"error":"draining"}`}
	replica := &recordingBackend{status: http.StatusOK, reply: `{"items":[{"poi":9}]}`}
	ps := httptest.NewServer(primary)
	defer ps.Close()
	rs := httptest.NewServer(replica)
	defer rs.Close()

	gw, err := cluster.NewGateway(
		[]cluster.ShardSet{{Name: "s0", Primary: ps.URL, Replicas: []string{rs.URL}}},
		cluster.GatewayOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(gw.Handler())
	defer hs.Close()

	body := `{"checkins":[{"poi":1,"t":0},{"poi":5,"t":2}]}`
	resp, err := http.Post(hs.URL+"/v1/next?user=3&n=5", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover next: status %d: %s", resp.StatusCode, got)
	}
	if string(got) != replica.reply {
		t.Fatalf("gateway relayed %q, want the replica's bytes %q", got, replica.reply)
	}
	if s := resp.Header.Get("X-Shard"); s != "s0" {
		t.Fatalf("X-Shard %q, want s0", s)
	}
	if b := resp.Header.Get("X-Backend"); b != rs.URL {
		t.Fatalf("X-Backend %q, want winning replica %q", b, rs.URL)
	}

	pBodies, pBudgets := primary.snapshot()
	rBodies, rBudgets := replica.snapshot()
	if len(pBodies) != 1 || len(rBodies) != 1 {
		t.Fatalf("primary saw %d requests, replica %d, want 1 each", len(pBodies), len(rBodies))
	}
	if !bytes.Equal(pBodies[0], []byte(body)) {
		t.Fatalf("primary received %q, want original body %q", pBodies[0], body)
	}
	if !bytes.Equal(rBodies[0], pBodies[0]) {
		t.Fatalf("replayed body %q differs from first attempt %q", rBodies[0], pBodies[0])
	}
	if pBudgets[0] == "" || rBudgets[0] == "" {
		t.Fatalf("hops missing %s: primary %q, replica %q",
			cluster.DeadlineBudgetHeader, pBudgets[0], rBudgets[0])
	}
}

// scriptedBackend answers reads with a fixed status — or, when hang is set,
// not until the caller gives up — and counts what it was asked.
type scriptedBackend struct {
	status int
	hang   bool
	mu     sync.Mutex
	bodies []string
}

func (b *scriptedBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	raw, _ := io.ReadAll(r.Body)
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		b.mu.Lock()
		b.bodies = append(b.bodies, string(raw))
		b.mu.Unlock()
		if b.hang {
			<-r.Context().Done()
			return
		}
	}
	w.WriteHeader(b.status)
	io.WriteString(w, `{"served":true}`)
}

func (b *scriptedBackend) seen() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.bodies...)
}

// TestGatewayReadLoopHedgeOffAndOn runs the failover, retry-budget,
// deadline-504 and buffered-POST cases through the gateway's one attempt loop
// with hedging off and on: hedging is only a second trigger for launching the
// next candidate, so every status, Retry-After and retry counter must come
// out the same. The retry-budget case is the hedged-mode bugfix — a retry the
// drained bucket refuses used to end in a bare 502 there.
func TestGatewayReadLoopHedgeOffAndOn(t *testing.T) {
	const nextBody = `{"checkins":[{"poi":1,"t":0},{"poi":5,"t":2}]}`
	type step struct {
		method, path, body string
		wantStatus         int
		wantRetryAfter     string
		wantBackend        int // index into backends of the expected X-Backend, -1 for none
	}
	cases := []struct {
		name     string
		backends []*scriptedBackend // primary first
		opts     cluster.GatewayOptions
		steps    []step
		// Gateway counters after the steps.
		retries, exhausted, failovers, deadlines int64
		check                                    func(t *testing.T, backends []*scriptedBackend)
	}{
		{
			name:     "failover",
			backends: []*scriptedBackend{{status: 503}, {status: 200}},
			steps:    []step{{"GET", "/v1/recommend?user=1&t=1", "", 200, "", 1}},
			retries:  1, failovers: 1,
		},
		{
			name:     "buffered POST replays on failover",
			backends: []*scriptedBackend{{status: 500}, {status: 200}},
			steps:    []step{{"POST", "/v1/next?user=1", nextBody, 200, "", 1}},
			retries:  1, failovers: 1,
			check: func(t *testing.T, backends []*scriptedBackend) {
				for i, b := range backends {
					if got := b.seen(); len(got) != 1 || got[0] != nextBody {
						t.Errorf("backend %d received %q, want the posted body once", i, got)
					}
				}
			},
		},
		{
			name:     "retry budget",
			backends: []*scriptedBackend{{status: 503}, {status: 503}},
			opts:     cluster.GatewayOptions{RetryBurst: 1, RetryRate: 0.0001},
			steps: []step{
				// The burst's one token buys the first read its failover; both
				// endpoints fail, so it is a 502.
				{"GET", "/v1/recommend?user=1&t=1", "", 502, "", -1},
				// The bucket is dry: the failover is refused with nothing in
				// flight, which is a 503 + Retry-After in either mode.
				{"GET", "/v1/recommend?user=1&t=1", "", 503, "1", -1},
				{"GET", "/v1/recommend?user=1&t=1", "", 503, "1", -1},
			},
			retries: 1, exhausted: 2,
		},
		{
			name:     "deadline budget",
			backends: []*scriptedBackend{{status: 200, hang: true}, {status: 200, hang: true}, {status: 200, hang: true}},
			opts: cluster.GatewayOptions{
				// Two hops (50 ms, then the 40 ms left) drain the budget with
				// a third candidate still untried.
				ReadBudget: 90 * time.Millisecond, PerTryTimeout: 50 * time.Millisecond, RetryBurst: 100,
			},
			steps:   []step{{"GET", "/v1/recommend?user=1&t=1", "", 504, "", -1}},
			retries: 1, deadlines: 1,
		},
	}
	for _, tc := range cases {
		for _, hedge := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hedge=%v", tc.name, hedge), func(t *testing.T) {
				backends := make([]*scriptedBackend, len(tc.backends))
				urls := make([]string, len(tc.backends))
				for i, b := range tc.backends {
					backends[i] = &scriptedBackend{status: b.status, hang: b.hang}
					hs := httptest.NewServer(backends[i])
					defer hs.Close()
					urls[i] = hs.URL
				}
				opts := tc.opts
				// The delay is far beyond any case's budget, so only failures
				// launch candidates and the counters are exact in both modes;
				// TestChaosHedgedReads covers a hedge that does fire.
				opts.Hedge, opts.HedgeDelay = hedge, time.Hour
				gw, err := cluster.NewGateway(
					[]cluster.ShardSet{{Name: "s0", Primary: urls[0], Replicas: urls[1:]}}, opts)
				if err != nil {
					t.Fatal(err)
				}
				front := httptest.NewServer(gw.Handler())
				defer front.Close()

				for i, st := range tc.steps {
					req, err := http.NewRequest(st.method, front.URL+st.path, strings.NewReader(st.body))
					if err != nil {
						t.Fatal(err)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != st.wantStatus {
						t.Fatalf("step %d: status %d, want %d: %s", i, resp.StatusCode, st.wantStatus, raw)
					}
					if got := resp.Header.Get("Retry-After"); got != st.wantRetryAfter {
						t.Fatalf("step %d: Retry-After %q, want %q", i, got, st.wantRetryAfter)
					}
					wantBackend := ""
					if st.wantBackend >= 0 {
						wantBackend = urls[st.wantBackend]
					}
					if got := resp.Header.Get("X-Backend"); got != wantBackend {
						t.Fatalf("step %d: X-Backend %q, want %q", i, got, wantBackend)
					}
				}
				if tc.check != nil {
					tc.check(t, backends)
				}

				resp, err := http.Get(front.URL + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var met gwMetrics
				if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
					t.Fatal(err)
				}
				g := met.Gateway
				if g.Retries != tc.retries || g.RetryBudgetExhausted != tc.exhausted ||
					g.Failovers != tc.failovers || g.DeadlineMissed != tc.deadlines || g.Hedges != 0 {
					t.Fatalf("gateway counters %+v, want retries %d, exhausted %d, failovers %d, deadline_504 %d, no hedges",
						g, tc.retries, tc.exhausted, tc.failovers, tc.deadlines)
				}
			})
		}
	}
}
