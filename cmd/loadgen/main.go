// Command loadgen drives the serving API of a running `tcss serve` node or
// `tcssgw` gateway at -url and reports throughput and latency; -users, -pois
// and -times describe the served model's dims.
//
// Two load models:
//
//	loadgen -url http://127.0.0.1:8080 -users 360 -pois 800 -times 12 -conns 8   # closed loop: 8 workers, b2b
//	loadgen -url http://127.0.0.1:8080 -users 360 -pois 800 -times 12 -rate 2000 # open loop: 2000 req/s target
//
// A fraction of requests (-observe-frac) are POST /v1/observe batches with a
// random check-in, exercising the snapshot-swap path and cache invalidation
// under read load. Results (throughput, client-side percentiles, error
// counts, server-side /metrics scrape) are written as JSON to -out.
//
// The exit status is what lets a smoke recipe fail: nonzero when no request
// succeeded, when any request's final response is outside 200/503/504 (and
// 400 for an observe), or when a -verify / -require-* check does not hold.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/registry"
	"tcss/internal/wire"
)

type options struct {
	url         string
	seed        int64
	conns       int
	rate        float64
	duration    time.Duration
	observeFrac float64
	nextFrac    float64
	topN        int
	users       int
	pois        int
	times       int
	retries     int
	retryCap    time.Duration
	out         string

	verify    bool
	synthRank int
	ver       *verifier

	requireModels string
	requireShadow bool
}

// sample is one completed request, classified for aggregation. status and ms
// describe the final attempt; retries counts the 503-and-retried attempts
// before it, netRetries the 504s, transport errors and torn bodies retried.
type sample struct {
	observe    bool
	next       bool
	status     int
	ms         float64
	cacheHit   bool
	retries    int
	netRetries int
	model      string // routed model from the X-Model header
	body       []byte // final-attempt response body, captured only under -verify
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "", "target server base URL (required: a running tcss serve node or tcssgw gateway)")
	flag.Int64Var(&o.seed, "seed", 7, "seed for dataset, training and request generation")
	flag.IntVar(&o.conns, "conns", 8, "closed-loop worker connections")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop target requests/s (0 = closed loop)")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "measurement duration")
	flag.Float64Var(&o.observeFrac, "observe-frac", 0.001, "fraction of requests that are observe batches")
	flag.Float64Var(&o.nextFrac, "next-frac", 0, "fraction of requests that are POST /v1/next with a random check-in sequence (requires -url against a server with a sequential model)")
	flag.IntVar(&o.topN, "n", 10, "top-N per recommend request")
	flag.IntVar(&o.users, "users", 0, "user id range for -url mode (ignored when self-hosting)")
	flag.IntVar(&o.pois, "pois", 0, "poi id range for -url mode (ignored when self-hosting)")
	flag.IntVar(&o.times, "times", 0, "time unit range for -url mode (ignored when self-hosting)")
	flag.IntVar(&o.retries, "retries", 3, "max retries per request on 503, 504 and transport errors (0 disables)")
	flag.DurationVar(&o.retryCap, "retry-cap", 500*time.Millisecond, "ceiling on per-retry backoff (Retry-After is clamped to this)")
	flag.StringVar(&o.out, "out", "loadgen.json", "output JSON path")
	flag.BoolVar(&o.verify, "verify", false, "recompute every recommend response from the synthetic model and exit nonzero on any mismatch (requires -url against a -synth-* cluster with matching -users/-pois/-times/-synth-rank/-seed, and -observe-frac 0)")
	flag.IntVar(&o.synthRank, "synth-rank", 8, "synthetic model embedding rank for -verify")
	flag.StringVar(&o.requireModels, "require-models", "", "comma-separated model names that must show served traffic in the target's /metrics (exit nonzero otherwise)")
	flag.BoolVar(&o.requireShadow, "require-shadow", false, "require the target's /metrics to show completed shadow scoring (exit nonzero otherwise)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(o options) (err error) {
	switch {
	case o.url == "":
		return errors.New("-url is required (the node or gateway to load; start one with `tcss serve`)")
	case o.users <= 0 || o.times <= 0:
		return errors.New("-users and -times are required (the served model's dims)")
	case o.observeFrac > 0 && o.pois <= 0:
		return errors.New("-observe-frac > 0 requires -pois")
	case o.nextFrac > 0 && o.pois <= 0:
		return errors.New("-next-frac requires -pois (check-in sequences draw random POI ids)")
	case o.verify && o.observeFrac != 0:
		return errors.New("-verify requires -observe-frac 0 (observes would advance the served model past the local copy)")
	case o.verify && o.pois <= 0:
		return errors.New("-verify requires -pois (the synthetic model's POI count)")
	}
	base := strings.TrimRight(o.url, "/")
	if o.verify {
		o.ver, err = newVerifier(o)
		if err != nil {
			return err
		}
		fmt.Printf("loadgen: verifying against local synthetic model (users=%d pois=%d times=%d rank=%d seed=%d)\n",
			o.users, o.pois, o.times, o.synthRank, o.seed)
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        o.conns + 64,
			MaxIdleConnsPerHost: o.conns + 64,
		},
	}
	results := make(chan sample, 8192)
	var agg aggregate
	collectDone := make(chan struct{})
	go func() {
		defer close(collectDone)
		for s := range results {
			agg.add(s)
		}
	}()

	fmt.Printf("loadgen: %s for %s (", base, o.duration)
	if o.rate > 0 {
		fmt.Printf("open loop, %g req/s target", o.rate)
	} else {
		fmt.Printf("closed loop, %d conns", o.conns)
	}
	fmt.Printf(", observe-frac %g)\n", o.observeFrac)

	start := time.Now()
	if o.rate > 0 {
		runOpenLoop(o, base, client, results)
	} else {
		runClosedLoop(o, base, client, results)
	}
	elapsed := time.Since(start)
	close(results)
	<-collectDone

	report := agg.report(o, elapsed)
	report.Server = scrapeMetrics(client, base)
	if o.ver != nil {
		o.ver.mu.Lock()
		report.Verify = &verifyReport{
			Checked:       o.ver.checked.Load(),
			Mismatches:    o.ver.mismatches.Load(),
			FirstMismatch: o.ver.first,
		}
		o.ver.mu.Unlock()
	}

	raw, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(o.out, raw, 0o644); err != nil {
		return err
	}
	report.Recommend.print("recommend")
	if o.nextFrac > 0 {
		report.Next.print("next")
	}
	if len(report.Models) > 0 {
		names := make([]string, 0, len(report.Models))
		for name := range report.Models {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cs := report.Models[name]
			fmt.Printf("model %s: %d recommends (p99 %.3fms), %d nexts (p99 %.3fms)\n",
				name, cs.Recommends, cs.P99ms, cs.Nexts, cs.NextP99ms)
		}
	}
	fmt.Printf("observe: %d ok, %d shed; errors: %d shed_503, %d deadline_504, %d other\n",
		report.Observe.OK, report.Observe.Shed,
		report.Errors.Shed503, report.Errors.Deadline504, report.Errors.Other)
	fmt.Printf("retries: %d recommend, %d observe (on 503, honoring Retry-After, cap %s)\n",
		report.Recommend.Retries, report.Observe.Retries, o.retryCap)
	fmt.Printf("net retries: %d recommend, %d next, %d observe (on 504, transport errors and torn bodies)\n",
		report.Recommend.NetRetries, report.Next.NetRetries, report.Observe.NetRetries)
	printServerStats(report.Server)
	fmt.Printf("wrote %s\n", o.out)
	// The exit rule: a smoke recipe that drives a broken server must fail.
	if n := report.Errors.Other; n > 0 {
		return fmt.Errorf("%d requests ended outside 200/503/504 (transport failure after retries, or an unexpected status)", n)
	}
	if report.Recommend.OK+report.Next.OK+report.Observe.OK == 0 {
		return errors.New("no request succeeded")
	}
	if report.Verify != nil {
		fmt.Printf("verify: %d responses checked against the local model, %d mismatches\n",
			report.Verify.Checked, report.Verify.Mismatches)
		if report.Verify.Mismatches > 0 {
			return fmt.Errorf("verify: %d mismatched responses (first: %s)",
				report.Verify.Mismatches, report.Verify.FirstMismatch)
		}
		if report.Verify.Checked == 0 {
			return fmt.Errorf("verify: no successful recommend responses to check")
		}
	}
	if o.requireModels != "" || o.requireShadow {
		if err := checkServerModels(report.Server, o); err != nil {
			return err
		}
		fmt.Println("require: server-side model and shadow checks passed")
	}
	return nil
}

// checkServerModels asserts multi-model serving invariants against the
// scraped /metrics document: every -require-models name must have served
// traffic, and -require-shadow demands completed off-path shadow scorings
// with a sane agreement fraction.
func checkServerModels(raw json.RawMessage, o options) error {
	if raw == nil {
		return fmt.Errorf("require: /metrics scrape failed, cannot check models")
	}
	var m wire.NodeMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("require: decoding /metrics: %w", err)
	}
	byName := make(map[string]int)
	for i, ms := range m.Models {
		byName[ms.Name] = i
	}
	if o.requireModels != "" {
		for _, name := range strings.Split(o.requireModels, ",") {
			name = strings.TrimSpace(name)
			i, ok := byName[name]
			if !ok {
				return fmt.Errorf("require: model %q absent from server /metrics", name)
			}
			if m.Models[i].Requests.Load()+m.Models[i].NextRequests.Load() == 0 {
				return fmt.Errorf("require: model %q served no traffic", name)
			}
		}
	}
	if o.requireShadow {
		var scored int64
		for _, ms := range m.Models {
			scored += ms.Shadow.Scored
			if avg := ms.Shadow.AgreementAvg; avg < 0 || avg > 1 {
				return fmt.Errorf("require: model %q shadow agreement %g outside [0,1]", ms.Name, avg)
			}
		}
		if scored == 0 {
			return fmt.Errorf("require: no completed shadow scorings on the server")
		}
		fmt.Printf("require: %d shadow scorings completed\n", scored)
	}
	return nil
}

// printServerStats summarizes the model-storage and coalescing blocks of the
// scraped /metrics document (the full document is embedded in the report).
func printServerStats(raw json.RawMessage) {
	var m wire.NodeMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return // no scrape, or not the node's document: nothing to summarize
	}
	if m.Model.Storage != "" {
		fmt.Printf("server model: %s storage, %d factor bytes (%.1f per user)\n",
			m.Model.Storage, m.Model.FactorBytes, m.Model.BytesPerUser)
	}
	if m.Coalesce.Enabled {
		fmt.Printf("server coalesce: %d batches, %d requests, avg batch %.2f\n",
			m.Coalesce.Batches.Load(), m.Coalesce.Requests.Load(), m.Coalesce.AvgBatchSize)
	}
}

// runClosedLoop runs o.conns workers issuing back-to-back requests until the
// duration elapses.
func runClosedLoop(o options, base string, client *http.Client, results chan<- sample) {
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for w := 0; w < o.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				results <- issue(o, base, client, rng)
			}
		}(w)
	}
	wg.Wait()
}

// runOpenLoop fires requests at a fixed target rate regardless of completion
// times; each request runs in its own goroutine, so latency under saturation
// reflects queueing rather than back-pressure on the generator.
func runOpenLoop(o options, base string, client *http.Client, results chan<- sample) {
	interval := time.Duration(float64(time.Second) / o.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(o.duration)
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		rng = rand.New(rand.NewSource(o.seed))
	)
	for time.Now().Before(deadline) {
		<-ticker.C
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			r := rand.New(rand.NewSource(rng.Int63()))
			mu.Unlock()
			results <- issue(o, base, client, r)
		}()
	}
	wg.Wait()
}

// issue performs one request: an observe batch with probability observeFrac,
// otherwise a recommend query with uniform random user and time unit.
func issue(o options, base string, client *http.Client, rng *rand.Rand) sample {
	if rng.Float64() < o.observeFrac {
		body, _ := json.Marshal(wire.ObserveRequest{CheckIns: []wire.CheckIn{{
			User:  rng.Intn(o.users),
			POI:   rng.Intn(o.pois),
			Month: rng.Intn(12),
			Week:  rng.Intn(53),
			Hour:  rng.Intn(24),
		}}})
		s := timed(o, rng, func() (*http.Response, error) {
			return client.Post(base+"/v1/observe", "application/json", bytes.NewReader(body))
		})
		s.observe = true
		return s
	}
	if o.nextFrac > 0 && rng.Float64() < o.nextFrac {
		return issueNext(o, base, client, rng)
	}
	user, t := rng.Intn(o.users), rng.Intn(o.times)
	url := fmt.Sprintf("%s/v1/recommend?user=%d&t=%d&n=%d", base, user, t, o.topN)
	s := timed(o, rng, func() (*http.Response, error) { return client.Get(url) })
	if o.ver != nil && s.status == http.StatusOK {
		o.ver.check(user, t, o.topN, s.body)
	}
	s.body = nil
	return s
}

// issueNext performs one POST /v1/next with a random check-in sequence of
// 2–8 visits whose time units ascend, mimicking a user trajectory.
func issueNext(o options, base string, client *http.Client, rng *rand.Rand) sample {
	seqLen := 2 + rng.Intn(7)
	ts := make([]int, seqLen)
	for i := range ts {
		ts[i] = rng.Intn(o.times)
	}
	sort.Ints(ts)
	checkins := make([]wire.NextCheckIn, seqLen)
	for i := range checkins {
		checkins[i] = wire.NextCheckIn{POI: rng.Intn(o.pois), T: ts[i]}
	}
	body, _ := json.Marshal(wire.NextRequest{CheckIns: checkins})
	url := fmt.Sprintf("%s/v1/next?user=%d&n=%d", base, rng.Intn(o.users), o.topN)
	s := timed(o, rng, func() (*http.Response, error) {
		return client.Post(url, "application/json", bytes.NewReader(body))
	})
	s.next = true
	s.body = nil
	return s
}

// verifier recomputes expected recommend responses from a local copy of the
// cluster's deterministic synthetic model (see tcss.SynthServing). Scores are
// compared exactly: JSON's shortest-round-trip float64 encoding means a
// correctly-routed, correctly-replicated response decodes to bit-identical
// values, so any inequality is a real serving defect (wrong shard, stale
// generation, torn shipment), not noise.
type verifier struct {
	model *tcss.Model
	side  *tcss.SideInfo
	pool  sync.Pool

	checked    atomic.Int64
	mismatches atomic.Int64

	mu    sync.Mutex
	first string
}

func newVerifier(o options) (*verifier, error) {
	model, side, err := tcss.SynthServing(o.users, o.pois, o.times, o.synthRank, o.seed)
	if err != nil {
		return nil, err
	}
	v := &verifier{model: model, side: side}
	v.pool.New = func() any { return core.NewRecScratch(model) }
	return v, nil
}

func (v *verifier) check(user, t, n int, body []byte) {
	var resp wire.ReadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		v.record(fmt.Sprintf("user=%d t=%d: decoding response: %v", user, t, err))
		return
	}
	sc := v.pool.Get().(*core.RecScratch)
	want := v.model.TopNScratch(user, t, n, v.side.OwnPOIs[user], sc)
	v.pool.Put(sc)
	v.checked.Add(1)
	if len(resp.Results) != len(want) {
		v.record(fmt.Sprintf("user=%d t=%d: %d results, want %d", user, t, len(resp.Results), len(want)))
		return
	}
	for i, got := range resp.Results {
		if got.POI != want[i].POI || got.Score != want[i].Score {
			v.record(fmt.Sprintf("user=%d t=%d rank %d: got poi=%d score=%v, want poi=%d score=%v",
				user, t, i, got.POI, got.Score, want[i].POI, want[i].Score))
			return
		}
	}
}

func (v *verifier) record(msg string) {
	v.mismatches.Add(1)
	v.mu.Lock()
	if v.first == "" {
		v.first = msg
	}
	v.mu.Unlock()
}

// timed issues one request with up to o.retries retries. Retried outcomes:
// 503 (shed or degraded), 504 (deadline budget drained at the gateway),
// transport errors (connection refused/reset, a partitioned gateway) and
// torn response bodies — the latter classes counted separately as network
// retries. The wait before each retry is the larger of the doubling client
// backoff and the server's Retry-After header, capped at o.retryCap and
// jittered to [wait/2, wait) so retry storms decorrelate. The returned
// latency covers the whole episode, backoff included.
func timed(o options, rng *rand.Rand, send func() (*http.Response, error)) sample {
	start := time.Now()
	var s sample
	backoff := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var retryAfter string
		resp, err := send()
		if err != nil {
			s.status, s.cacheHit, s.model, s.body = 0, false, "", nil
		} else {
			s.status = resp.StatusCode
			s.cacheHit = resp.Header.Get(wire.CacheHeader) == "HIT"
			s.model = resp.Header.Get(wire.ModelHeader)
			retryAfter = resp.Header.Get(wire.RetryAfterHeader)
			var berr error
			if o.ver != nil {
				s.body, berr = io.ReadAll(resp.Body)
			} else {
				_, berr = io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			if berr != nil {
				// A torn body is as useless as no response: retry it like a
				// transport failure rather than trusting partial bytes.
				err = berr
				s.status, s.body = 0, nil
			}
		}
		retry := err != nil ||
			s.status == http.StatusServiceUnavailable ||
			s.status == http.StatusGatewayTimeout
		if !retry || attempt >= o.retries {
			break
		}
		wait := backoff
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
			if ra := time.Duration(secs) * time.Second; ra > wait {
				wait = ra
			}
		}
		if wait > o.retryCap {
			wait = o.retryCap
		}
		if half := wait / 2; half > 0 {
			wait = half + time.Duration(rng.Int63n(int64(half)))
		}
		time.Sleep(wait)
		backoff *= 2
		if s.status == http.StatusServiceUnavailable {
			s.retries++
		} else {
			s.netRetries++
		}
	}
	s.ms = float64(time.Since(start)) / float64(time.Millisecond)
	return s
}

// readAgg accumulates one class of reads (recommend or next); lat holds the
// latency of every 200.
type readAgg struct {
	lat                       []float64
	hits, retries, netRetries int
}

// aggregate accumulates samples; single-goroutine (the collector).
type aggregate struct {
	rec, next                 readAgg
	obsOK, obsShed, obsBad    int
	obsRetries, obsNetRetries int
	shed503, missed504, other int
	models                    map[string]*modelAgg
}

// modelAgg is the client-side view of one routed model's traffic.
type modelAgg struct {
	recLat  []float64
	nextLat []float64
}

func (a *aggregate) add(s sample) {
	if s.observe {
		a.obsRetries += s.retries
		a.obsNetRetries += s.netRetries
		switch s.status {
		case http.StatusOK:
			a.obsOK++
		case http.StatusServiceUnavailable:
			a.obsShed++
		case http.StatusBadRequest:
			a.obsBad++ // random POI out of range: expected, still exercised parsing
		default:
			a.other++
		}
		return
	}
	r := &a.rec
	if s.next {
		r = &a.next
	}
	r.retries += s.retries
	r.netRetries += s.netRetries
	switch s.status {
	case http.StatusOK:
		r.lat = append(r.lat, s.ms)
		if s.cacheHit {
			r.hits++
		}
		if m := a.perModel(s.model); s.next {
			m.nextLat = append(m.nextLat, s.ms)
		} else {
			m.recLat = append(m.recLat, s.ms)
		}
	case http.StatusServiceUnavailable:
		a.shed503++
	case http.StatusGatewayTimeout:
		a.missed504++
	default:
		a.other++
	}
}

// perModel returns the accumulator for one X-Model value. Pre-registry
// servers send no header; that traffic lands under "" and is dropped from
// the models block.
func (a *aggregate) perModel(model string) *modelAgg {
	if a.models == nil {
		a.models = make(map[string]*modelAgg)
	}
	m, ok := a.models[model]
	if !ok {
		m = &modelAgg{}
		a.models[model] = m
	}
	return m
}

// benchReport is the JSON document written to -out.
type benchReport struct {
	Config struct {
		Target      string  `json:"target"`
		Conns       int     `json:"conns,omitempty"`
		RateTarget  float64 `json:"rate_target_rps,omitempty"`
		DurationSec float64 `json:"duration_seconds"`
		ObserveFrac float64 `json:"observe_frac"`
		TopN        int     `json:"topn"`
		Seed        int64   `json:"seed"`
		Retries     int     `json:"retries"`
		RetryCapMs  float64 `json:"retry_cap_ms"`
	} `json:"config"`
	Recommend readStats `json:"recommend"`
	Next      readStats `json:"next"`
	Observe   struct {
		OK         int `json:"ok"`
		Shed       int `json:"shed"`
		Bad        int `json:"bad_request"`
		Retries    int `json:"retries"`
		NetRetries int `json:"net_retries"`
	} `json:"observe"`
	Models map[string]clientModelStats `json:"models,omitempty"`
	Errors struct {
		Shed503     int `json:"shed_503"`
		Deadline504 int `json:"deadline_504"`
		Other       int `json:"other"`
	} `json:"errors"`
	Verify *verifyReport   `json:"verify,omitempty"`
	Server json.RawMessage `json:"server_metrics,omitempty"`
}

// readStats is the report block of one class of reads.
type readStats struct {
	OK           int     `json:"ok"`
	RPS          float64 `json:"rps"`
	P50ms        float64 `json:"p50_ms"`
	P95ms        float64 `json:"p95_ms"`
	P99ms        float64 `json:"p99_ms"`
	CacheHitFrac float64 `json:"client_cache_hit_frac"`
	Retries      int     `json:"retries"`
	NetRetries   int     `json:"net_retries"`
}

func (r *readAgg) stats(elapsed time.Duration) readStats {
	s := readStats{OK: len(r.lat), RPS: float64(len(r.lat)) / elapsed.Seconds(), Retries: r.retries, NetRetries: r.netRetries}
	if s.OK > 0 {
		s.CacheHitFrac = float64(r.hits) / float64(s.OK)
	}
	s.P50ms, s.P95ms, s.P99ms = registry.Percentiles(r.lat)
	return s
}

func (s readStats) print(class string) {
	fmt.Printf("%s: %d ok, %.0f req/s, p50 %.3fms p95 %.3fms p99 %.3fms, client cache-hit %.1f%%\n",
		class, s.OK, s.RPS, s.P50ms, s.P95ms, s.P99ms, 100*s.CacheHitFrac)
}

// clientModelStats is the per-routed-model block of the report, keyed by the
// X-Model response header.
type clientModelStats struct {
	Recommends int     `json:"recommends"`
	P99ms      float64 `json:"p99_ms,omitempty"`
	Nexts      int     `json:"nexts"`
	NextP99ms  float64 `json:"next_p99_ms,omitempty"`
}

type verifyReport struct {
	Checked       int64  `json:"checked"`
	Mismatches    int64  `json:"mismatches"`
	FirstMismatch string `json:"first_mismatch,omitempty"`
}

func (a *aggregate) report(o options, elapsed time.Duration) benchReport {
	var r benchReport
	r.Config.Target = o.url
	if o.rate > 0 {
		r.Config.RateTarget = o.rate
	} else {
		r.Config.Conns = o.conns
	}
	r.Config.DurationSec = elapsed.Seconds()
	r.Config.ObserveFrac = o.observeFrac
	r.Config.TopN = o.topN
	r.Config.Seed = o.seed
	r.Config.Retries = o.retries
	r.Config.RetryCapMs = float64(o.retryCap) / float64(time.Millisecond)

	r.Recommend = a.rec.stats(elapsed)
	r.Next = a.next.stats(elapsed)
	for model, m := range a.models {
		if model == "" {
			continue
		}
		if r.Models == nil {
			r.Models = make(map[string]clientModelStats)
		}
		var cs clientModelStats
		cs.Recommends = len(m.recLat)
		_, _, cs.P99ms = registry.Percentiles(m.recLat)
		cs.Nexts = len(m.nextLat)
		_, _, cs.NextP99ms = registry.Percentiles(m.nextLat)
		r.Models[model] = cs
	}
	r.Observe.OK = a.obsOK
	r.Observe.Shed = a.obsShed
	r.Observe.Bad = a.obsBad
	r.Observe.Retries = a.obsRetries
	r.Observe.NetRetries = a.obsNetRetries
	r.Errors.Shed503 = a.shed503
	r.Errors.Deadline504 = a.missed504
	r.Errors.Other = a.other
	return r
}

// scrapeMetrics embeds the server's own /metrics document in the report.
func scrapeMetrics(client *http.Client, base string) json.RawMessage {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return json.RawMessage(raw)
}
