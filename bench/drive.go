package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tcss/internal/lbsn"
)

// op is one planned request: a GET /v1/recommend for (user, t), or a POST
// /v1/observe carrying body.
type op struct {
	observe  bool
	user, t  int
	body     []byte         // observe: the request body
	checkIns []lbsn.CheckIn // observe: the same batch, for feeding a twin recommender
}

// opResult is what the client saw of one op.
type opResult struct {
	end    time.Duration // since the phase began
	lat    time.Duration
	status int    // 0 on a transport error
	sum    uint64 // FNV-64a of the response body
	hit    bool   // X-Cache: HIT
	body   []byte // kept only where keep(i) said so
}

// listen serves h on a loopback port and returns its base URL and a stop
// function that returns once the server goroutine has exited.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) // always returns ErrServerClosed after stop
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

func recommendURL(base string, user, t int) string {
	return base + "/v1/recommend?user=" + strconv.Itoa(user) + "&t=" + strconv.Itoa(t) + "&n=10"
}

// load is a closed-loop client: conns connections to base, each sending its
// next op only when the reply to the previous one has been read in full.
type load struct {
	base  string
	conns int
	keep  func(i int) bool // whose reply bodies to keep besides the observes'; nil for none
	// Traced pass (one connection): the op index is published to the
	// middleware and the ops rec traces get a client.request span.
	rec *recorder
	// canary, when set, runs on connection 0 every canaryEvery; the phase's
	// clock stops while it does.
	canary *canary
}

// drive executes ops — connection c sends ops c, c+conns, … — and returns
// what the client saw of each and the length of the phase on its clock.
func (l load) drive(ops []op) ([]opResult, time.Duration) {
	client := newClient(l.conns)
	defer client.CloseIdleConnections()
	res := make([]opResult, len(ops))
	paused := func() time.Duration { return 0 }
	if l.canary != nil {
		before := l.canary.paused.Load()
		paused = func() time.Duration { return time.Duration(l.canary.paused.Load() - before) }
	}
	var wg sync.WaitGroup
	begin := make(chan struct{})
	var start time.Time
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			h := fnv.New64a()
			var lastCanary time.Time
			<-begin
			for i := c; i < len(ops); i += l.conns {
				if l.canary != nil && c == 0 && time.Since(lastCanary) >= canaryEvery {
					l.canary.run()
					lastCanary = time.Now()
				}
				o := &ops[i]
				tracing := l.rec != nil && l.rec.traced(i)
				if l.rec != nil {
					l.rec.cur.Store(int64(i))
					l.rec.on.Store(tracing)
				}
				var req *http.Request
				if o.observe {
					req, _ = http.NewRequest(http.MethodPost, l.base+"/v1/observe", bytes.NewReader(o.body))
					req.Header.Set("Content-Type", "application/json")
				} else {
					req, _ = http.NewRequest(http.MethodGet, recommendURL(l.base, o.user, o.t), nil)
				}
				r := &res[i]
				t0 := time.Now()
				resp, err := client.Do(req)
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					resp.Body.Close()
				}
				t1 := time.Now()
				r.lat, r.end = t1.Sub(t0), t1.Sub(start)-paused()
				if tracing {
					l.rec.add(int64(i), spanClient, "", t0, t1)
				}
				if err != nil {
					continue
				}
				r.status = resp.StatusCode
				r.hit = resp.Header.Get("X-Cache") == "HIT"
				h.Reset()
				h.Write(buf.Bytes())
				r.sum = h.Sum64()
				if o.observe || (l.keep != nil && l.keep(i)) {
					r.body = append([]byte(nil), buf.Bytes()...)
				}
			}
		}(c)
	}
	start = time.Now()
	close(begin)
	wg.Wait()
	wall := time.Since(start) - paused()
	if l.rec != nil {
		l.rec.on.Store(false)
	}
	return res, wall
}

// fetch GETs url and returns the body of a 200 reply.
func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}
