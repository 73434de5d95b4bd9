package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcss"
	"tcss/internal/serve"
	"tcss/internal/wire"
)

// scripted answers the n-th request it receives with steps[n] (the last step
// repeats), so a test can lay out exactly what each attempt sees.
func scripted(t *testing.T, steps ...http.HandlerFunc) *httptest.Server {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(n.Add(1)) - 1
		if i >= len(steps) {
			i = len(steps) - 1
		}
		steps[i](w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func status(code int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if code == http.StatusServiceUnavailable {
			w.Header().Set(wire.RetryAfterHeader, "1")
		}
		w.WriteHeader(code)
		io.WriteString(w, "{}\n")
	}
}

// torn promises 100 body bytes and delivers 5: the client's read fails.
func torn(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Length", "100")
	io.WriteString(w, "short")
}

// fastOpts retries at once: Retry-After and the backoff are both clamped to
// the one-millisecond cap.
func fastOpts(url string) options {
	return options{url: url, seed: 7, conns: 1, duration: 50 * time.Millisecond,
		topN: 10, users: 50, pois: 40, times: 12, retries: 3, retryCap: time.Millisecond, synthRank: 4}
}

func TestTimedClassifiesAttempts(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		steps                       []http.HandlerFunc
		refuseFirst                 bool
		status, retries, netRetries int
	}{
		{name: "503 + Retry-After is a counted retry", steps: []http.HandlerFunc{status(503), status(503), status(200)}, status: 200, retries: 2},
		{name: "504 is a net retry", steps: []http.HandlerFunc{status(504), status(200)}, status: 200, netRetries: 1},
		{name: "torn body is a net retry", steps: []http.HandlerFunc{torn, status(200)}, status: 200, netRetries: 1},
		{name: "transport error is a net retry", steps: []http.HandlerFunc{status(200)}, refuseFirst: true, status: 200, netRetries: 1},
		{name: "400 is final", steps: []http.HandlerFunc{status(400), status(200)}, status: 400},
		{name: "500 is final", steps: []http.HandlerFunc{status(500), status(200)}, status: 500},
		{name: "retries run out", steps: []http.HandlerFunc{status(503)}, status: 503, retries: 3},
	} {
		srv := scripted(t, tc.steps...)
		refuse := tc.refuseFirst
		s := timed(fastOpts(srv.URL), rand.New(rand.NewSource(1)), func() (*http.Response, error) {
			if refuse {
				refuse = false
				return nil, errors.New("connection refused")
			}
			return http.Get(srv.URL)
		})
		if s.status != tc.status || s.retries != tc.retries || s.netRetries != tc.netRetries {
			t.Errorf("%s: status %d retries %d net %d, want %d/%d/%d",
				tc.name, s.status, s.retries, s.netRetries, tc.status, tc.retries, tc.netRetries)
		}
	}
}

// synthNode serves the synthetic model fastOpts describes, the way
// `tcss serve -synth-users` does.
func synthNode(t *testing.T) *httptest.Server {
	o := fastOpts("")
	model, side, err := tcss.SynthServing(o.users, o.pois, o.times, o.synthRank, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	node, err := serve.NewFromSource(&serve.StaticSource{Model: model, Side: side, Gran: tcss.SynthGranularity(o.times)}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(func() { srv.Close(); node.Close() })
	return srv
}

func TestVerifierCheck(t *testing.T) {
	srv := synthNode(t)
	resp, err := http.Get(srv.URL + "/v1/recommend?user=3&t=5&n=10")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend: status %d, %v", resp.StatusCode, err)
	}
	v, err := newVerifier(fastOpts(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	v.check(3, 5, 10, body)
	if v.checked.Load() != 1 || v.mismatches.Load() != 0 {
		t.Fatalf("a node's own answer: checked %d mismatches %d (%s)", v.checked.Load(), v.mismatches.Load(), v.first)
	}

	var good wire.ReadResponse
	if err := json.Unmarshal(body, &good); err != nil || len(good.Results) != 10 {
		t.Fatalf("decoding %s: %v", body, err)
	}
	for name, mutate := range map[string]func(r *wire.ReadResponse){
		"flipped score": func(r *wire.ReadResponse) { r.Results[4].Score = -r.Results[4].Score },
		"swapped POI": func(r *wire.ReadResponse) {
			r.Results[0].POI, r.Results[1].POI = r.Results[1].POI, r.Results[0].POI
		},
		"short list": func(r *wire.ReadResponse) { r.Results = r.Results[:9] },
	} {
		bad := good
		bad.Results = append([]wire.Recommendation(nil), good.Results...)
		mutate(&bad)
		raw, _ := json.Marshal(bad)
		before := v.mismatches.Load()
		v.check(3, 5, 10, raw)
		if v.mismatches.Load() != before+1 {
			t.Errorf("%s was not recorded as a mismatch", name)
		}
	}
	if !strings.Contains(v.first, "user=3 t=5") {
		t.Errorf("first mismatch %q does not name the request", v.first)
	}
}

// The exit rule: a smoke recipe driving a broken server must fail, and one
// driving a server that only sheds for a while must not.
func TestRunExitRule(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	for _, tc := range []struct {
		name, url, want string
		verify          bool
	}{
		{name: "dead URL", url: dead.URL, want: "ended outside 200/503/504"},
		{name: "one 500", url: scripted(t, status(200), status(200), status(500), status(200)).URL, want: "1 requests ended outside"},
		{name: "503s that recover", url: scripted(t, status(503), status(503), status(200)).URL},
		{name: "only 503s", url: scripted(t, status(503)).URL, want: "no request succeeded"},
		{name: "verified synthetic node", url: synthNode(t).URL, verify: true},
	} {
		o := fastOpts(tc.url)
		o.out = filepath.Join(t.TempDir(), "loadgen.json")
		o.verify = tc.verify
		err := run(o)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	for want, edit := range map[string]func(o *options){
		"-url is required":                 func(o *options) { o.url = "" },
		"-users and -times are required":   func(o *options) { o.times = 0 },
		"-observe-frac > 0 requires -pois": func(o *options) { o.observeFrac, o.pois = 0.1, 0 },
		"-next-frac requires -pois":        func(o *options) { o.nextFrac, o.pois = 0.1, 0 },
		"-verify requires -observe-frac 0": func(o *options) { o.verify, o.observeFrac = true, 0.1 },
	} {
		o := fastOpts("http://127.0.0.1:1")
		edit(&o)
		if err := run(o); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v, want one containing %q", err, want)
		}
	}
}

// Three samples report their median as p50 (loadgen's own floor-rank formula
// reported the minimum).
func TestReportPercentiles(t *testing.T) {
	var a aggregate
	for _, ms := range []float64{3, 1, 2} {
		a.add(sample{status: http.StatusOK, ms: ms, model: "tcss"})
	}
	r := a.report(fastOpts("http://x"), time.Second)
	if got := fmt.Sprint(r.Recommend.P50ms, r.Recommend.P95ms, r.Recommend.P99ms, r.Models["tcss"].P99ms); got != "2 3 3 3" {
		t.Errorf("p50 p95 p99 model-p99 = %s, want 2 3 3 3", got)
	}
}
