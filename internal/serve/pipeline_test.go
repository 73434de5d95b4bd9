package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcss"
	"tcss/internal/baselines"
	"tcss/internal/core"
	"tcss/internal/registry"
	"tcss/internal/wire"
)

// pipelineCounters reads every counter the error table can move, plus the
// budget clamp, so a case can assert exactly which ones did.
func pipelineCounters(srv *Server) map[string]int64 {
	m := srv.collectMetrics()
	return map[string]int64{
		"bad_requests":        m.BadRequests.Load(),
		"misrouted":           m.Shard.Misrouted.Load(),
		"model_404":           m.ModelNotFound.Load(),
		"model_not_ready_503": m.ModelNotReady.Load(),
		"shed_503":            m.Shed.Load(),
		"deadline_504":        m.DeadlineMissed.Load(),
		"internal_500":        m.InternalErrors.Load(),
		"budget_clamped":      m.Admission.BudgetClamped.Load(),
	}
}

// TestReadPipelineTable drives all three read endpoints through the same
// rejection cases. They share one pipeline, so each case must produce the same
// status, the JSON error envelope, Retry-After where the table prescribes it,
// and move exactly the named counters — on every endpoint alike.
func TestReadPipelineTable(t *testing.T) {
	rec := fitRecommender(t, 21)
	unfitted, _ := baselines.SeqLookup("STGN")
	reg := registry.New()
	for _, m := range []baselines.SeqServer{fitSeqModel(t, rec, "STRNN", 21), unfitted} {
		if err := reg.Register(registry.NewSeqScorer(m, 1)); err != nil {
			t.Fatal(err)
		}
	}

	// hold parks admitted requests inside their scoring slot while armed.
	var armed atomic.Bool
	entered, release := make(chan struct{}, 4), make(chan struct{})
	const foreign = 7
	opts := Options{
		Registry: reg, Online: quickOnline(),
		MaxInflight: 1, MaxQueue: 1, RetryAfter: 3 * time.Second,
		CacheSize: -1, // every read must reach admission
		ShardName: "s0",
		Owns:      func(user int) bool { return user != foreign },
	}
	opts.holdForTest = func() {
		if armed.Load() {
			entered <- struct{}{}
			<-release
		}
	}
	srv, err := New(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	// One request builder per endpoint: user is spliced in raw so cases can
	// malform it; extra carries further query parameters and comes before the
	// endpoint's defaults so it can override them (the first value wins).
	type endpoint struct {
		name   string
		routed bool // takes ?model=
		do     func(user, extra, budget string) *http.Response
	}
	send := func(method, url, body, budget string) *http.Response {
		req, err := http.NewRequest(method, hs.URL+url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if budget != "" {
			req.Header.Set(wire.DeadlineBudgetHeader, budget)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	endpoints := []endpoint{
		{"recommend", true, func(user, extra, budget string) *http.Response {
			return send("GET", "/v1/recommend?user="+user+extra+"&t=1", "", budget)
		}},
		{"next", true, func(user, extra, budget string) *http.Response {
			return send("POST", "/v1/next?user="+user+extra, nextBody, budget)
		}},
		{"explain", false, func(user, extra, budget string) *http.Response {
			return send("GET", "/v1/explain?user="+user+extra+"&poi=1&t=1", "", budget)
		}},
	}

	type readCase struct {
		name         string
		user, extra  string
		budget       string
		routedOnly   bool // needs ?model=, which explain does not take
		wantStatus   int
		wantRetry    string   // Retry-After, "" for none
		wantCounters []string // the counters that move, by one each
	}
	check := func(ep endpoint, c readCase) {
		t.Helper()
		if c.routedOnly && !ep.routed {
			return
		}
		before := pipelineCounters(srv)
		resp := ep.do(c.user, c.extra, c.budget)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		label := ep.name + "/" + c.name
		if resp.StatusCode != c.wantStatus {
			t.Fatalf("%s: status %d, want %d: %s", label, resp.StatusCode, c.wantStatus, raw)
		}
		if got := resp.Header.Get(wire.RetryAfterHeader); got != c.wantRetry {
			t.Errorf("%s: Retry-After %q, want %q", label, got, c.wantRetry)
		}
		if c.wantStatus != http.StatusOK {
			var eb wire.Error
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
				t.Errorf("%s: body %q is not the error envelope (%v)", label, raw, err)
			}
		}
		want := map[string]int64{}
		for _, name := range c.wantCounters {
			want[name] = 1
		}
		for name, after := range pipelineCounters(srv) {
			if moved := after - before[name]; moved != want[name] {
				t.Errorf("%s: counter %s moved by %d, want %d", label, name, moved, want[name])
			}
		}
	}

	idle := []readCase{
		{name: "ok", user: "1", wantStatus: 200},
		{name: "malformed", user: "abc", wantStatus: 400, wantCounters: []string{"bad_requests"}},
		{name: "missing", user: "", wantStatus: 400, wantCounters: []string{"bad_requests"}},
		{name: "out of range", user: "100000", wantStatus: 400, wantCounters: []string{"bad_requests"}},
		{name: "t out of range", user: "1", extra: "&t=99", wantStatus: 400, wantCounters: []string{"bad_requests"}},
		{name: "misrouted", user: fmt.Sprint(foreign), wantStatus: 421, wantCounters: []string{"misrouted"}},
		{name: "unknown model", user: "1", extra: "&model=nope", routedOnly: true, wantStatus: 404, wantCounters: []string{"model_404"}},
		{name: "not ready", user: "1", extra: "&model=STGN", routedOnly: true, wantStatus: 503, wantRetry: "3", wantCounters: []string{"model_not_ready_503"}},
		{name: "budget clamped", user: "1", budget: "500", wantStatus: 200, wantCounters: []string{"budget_clamped"}},
		// A budget too large for a time.Duration is no budget at all; it used
		// to wrap negative and 504 the request on arrival.
		{name: "budget overflow", user: "1", budget: "9223372036854775807", wantStatus: 200},
		{name: "budget garbage", user: "1", budget: "soon", wantStatus: 200},
	}
	for _, ep := range endpoints {
		for _, c := range idle {
			check(ep, c)
		}
	}

	// Park one request in the only scoring slot. With the queue still empty a
	// 1 ms budget queues, expires and 504s; once a second request fills the
	// one-deep queue, every further read is shed.
	armed.Store(true)
	parked := make(chan int, 2)
	park := func(user string) {
		resp := endpoints[0].do(user, "", "")
		resp.Body.Close()
		parked <- resp.StatusCode
	}
	go park("2")
	<-entered
	for _, ep := range endpoints {
		check(ep, readCase{name: "deadline", user: "1", budget: "1", wantStatus: 504,
			wantCounters: []string{"deadline_504", "budget_clamped"}})
	}
	go park("3")
	for deadline := time.Now().Add(5 * time.Second); srv.adm.waiting.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	for _, ep := range endpoints {
		check(ep, readCase{name: "shed", user: "1", wantStatus: 503, wantRetry: "3",
			wantCounters: []string{"shed_503"}})
	}
	armed.Store(false)
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-parked; code != http.StatusOK {
			t.Fatalf("parked request finished %d", code)
		}
	}
}

// TestObserveReplyDimsMatchItsGeneration queues two growth batches and delays
// the first reply until the second batch has been published — what a handler
// that is slow to wake up sees. The first reply must still pair generation 1
// with generation 1's dimensions; it used to read them from whatever snapshot
// was current when the handler got round to answering.
func TestObserveReplyDimsMatchItsGeneration(t *testing.T) {
	srv, hs := newTestServer(t, Options{Grow: true})
	srv.Close() // the test plays the writer, so it can order the replies
	baseI := srv.snap.load().Model.I

	replies := make(chan observeResponse, 2)
	for b := 0; b < 2; b++ {
		body, err := json.Marshal(observeRequest{
			NewUsers: []observeNewUser{{ID: baseI + b, Friends: []int{0}}},
			CheckIns: []observeCheckIn{{User: baseI + b, POI: 1, Month: 3, Week: 13, Hour: 9}},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			var out observeResponse
			resp, err := http.Post(hs.URL+"/v1/observe", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Error(err)
			} else {
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("observe: status %d, decode error %v", resp.StatusCode, err)
				}
				resp.Body.Close()
			}
			replies <- out
		}()
		// Queue the batches in order: the second one's user id builds on the
		// first one's growth.
		for deadline := time.Now().Add(5 * time.Second); len(srv.cmds) <= b; {
			if time.Now().After(deadline) {
				t.Fatalf("batch %d never reached the writer queue", b)
			}
			time.Sleep(time.Millisecond)
		}
	}
	first, second := <-srv.cmds, <-srv.cmds
	r1 := srv.dispatch(first)
	r2 := srv.dispatch(second)
	first.reply <- r1
	second.reply <- r2

	for i := 0; i < 2; i++ {
		got := <-replies
		if got.Generation < 1 || got.Generation > 2 {
			t.Fatalf("observe reply %+v: want generation 1 or 2", got)
		}
		if want := baseI + int(got.Generation); got.Users != want {
			t.Errorf("generation %d reported %d users, want the %d of its own snapshot", got.Generation, got.Users, want)
		}
	}
}

// FuzzObserveValidate is the node's half of wire.FuzzObserveDecode: whatever
// body decodes, validating it against a snapshot's dimensions never panics,
// and a batch that passes mirrors the request, names only users this node
// owns, only ids below dim+maxGrowPerBatch and — with growth off — only ids
// inside the model.
func FuzzObserveValidate(f *testing.F) {
	for _, seed := range []string{
		`{"checkins":[{"user":1,"poi":2,"month":3,"week":13,"hour":9}]}`,
		`{"checkins":[{"user":41,"poi":36,"month":11}],"new_users":[{"id":40,"friends":[1,41]},{"id":41}]}`,
		`{"new_pois":[{"id":36,"lat":38.83,"lon":-77.31,"category":2}]}`,
		`{"new_users":[{"id":9223372036854775807,"friends":[-1]}]}`,
		`{"checkins":[{"user":7,"poi":-1,"month":99}]}`,
		`{"new_users":[{"id":9223372036854775807}]}`,
		`{"new_pois":[{"id":100000}]}`,
	} {
		f.Add([]byte(seed), true)
		f.Add([]byte(seed), false)
	}
	m := &core.Model{I: 40, J: 36, K: 12}
	f.Fuzz(func(t *testing.T, data []byte, grow bool) {
		req, err := wire.DecodeObserve(bytes.NewReader(data))
		if err != nil {
			return
		}
		s := &Server{gran: tcss.Month, opts: Options{
			Grow: grow, ShardName: "s0", Owns: func(user int) bool { return user%5 != 2 },
		}}
		batch, err := s.observeBatch(req, m)
		if err != nil {
			return
		}
		if len(batch.CheckIns) != len(req.CheckIns) || len(batch.NewUsers) != len(req.NewUsers) || len(batch.NewPOIs) != len(req.NewPOIs) {
			t.Fatalf("batch %+v does not mirror request %+v", batch, req)
		}
		for _, c := range batch.CheckIns {
			if c.User < 0 || c.POI < 0 || c.Month < 0 || c.Month >= m.K || !s.owns(c.User) {
				t.Fatalf("accepted check-in %+v", c)
			}
			if !grow && (c.User >= m.I || c.POI >= m.J) {
				t.Fatalf("accepted out-of-model check-in %+v with growth off", c)
			}
			if c.User >= m.I+maxGrowPerBatch || c.POI >= m.J+maxGrowPerBatch {
				t.Fatalf("accepted check-in %+v beyond the growth bound", c)
			}
		}
		for _, u := range batch.NewUsers {
			if u.ID >= m.I+maxGrowPerBatch {
				t.Fatalf("accepted new user %d beyond the growth bound", u.ID)
			}
		}
		for _, p := range batch.NewPOIs {
			if p.ID >= m.J+maxGrowPerBatch {
				t.Fatalf("accepted new POI %d beyond the growth bound", p.ID)
			}
		}
		if !grow && len(batch.NewUsers)+len(batch.NewPOIs) > 0 {
			t.Fatal("accepted arrivals with growth off")
		}
	})
}
