package fault

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// NetFault is one injected network behaviour applied to requests toward a
// target endpoint. Fields compose: latency is added first, then at most one
// terminal behaviour fires in the order Hang, Drop, Status; body mutations
// (TruncateBody, CorruptByte) apply to real forwarded responses only.
type NetFault struct {
	// Latency delays the request before anything else happens; Jitter adds a
	// seeded uniform draw from [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration

	// Hang blocks until the request's context is cancelled and returns its
	// error — the indefinite-hang fault. A client without a deadline wedges
	// forever, which is exactly what the resilience layer must prevent.
	Hang bool

	// Drop fails the request with a transport-level error wrapping
	// ErrInjected, before any bytes reach the endpoint — a connection refused
	// / one-way partition analogue.
	Drop bool

	// Status, when non-zero, synthesizes a response with this status code and
	// a JSON error body without forwarding — the 5xx-burst fault.
	Status int

	// TruncateBody forwards the request but cuts the response body after N
	// bytes, surfacing io.ErrUnexpectedEOF to the reader — a torn response.
	TruncateBody int64

	// CorruptByte forwards the request and flips bit 0x40 of the (1-based)
	// Nth response-body byte — a silent corruption only checksums catch.
	CorruptByte int64

	// Rate is the probability in [0,1] that a matching request is affected;
	// 0 means always (the common scripted case).
	Rate float64

	// Count limits how many requests this fault affects before it expires;
	// 0 means until healed. Unaffected draws (Rate misses) do not consume it.
	Count int
}

// terminal reports whether the fault replaces the forwarded request entirely.
func (f NetFault) terminal() bool { return f.Hang || f.Drop || f.Status != 0 }

// netFaultState tracks one endpoint's fault schedule: an ordered queue of
// NetFault steps. The head step applies until its Count drains (Count 0 pins
// it until healed), then the next step takes over; an empty queue is healthy.
type netFaultState struct {
	steps []NetFault
}

// Transport is a seeded, plan-driven http.RoundTripper that injects network
// faults between this client and named endpoints — the network-layer sibling
// of InjectFS. One Transport instance represents one *source* (a gateway, a
// replicator), so a fault armed here is a one-way partition: the target is
// unreachable from this source while other sources still reach it fine.
//
// All scheduling is deterministic: faults fire in the order armed, Count
// drains per affected request, and probabilistic faults (Rate) draw from a
// seeded stream. Heal and HealAll restore clean pass-through.
type Transport struct {
	inner http.RoundTripper

	mu     sync.Mutex
	rng    *rand.Rand
	faults map[string]*netFaultState // key: endpoint host:port
	total  int64
}

// NewTransport wraps inner (http.DefaultTransport when nil) with seeded fault
// injection. With no faults armed it is a pass-through.
func NewTransport(inner http.RoundTripper, seed int64) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seed)),
		faults: make(map[string]*netFaultState),
	}
}

// hostKey normalizes an endpoint reference ("http://127.0.0.1:8080",
// "127.0.0.1:8080") to the host:port key requests are matched on.
func hostKey(target string) string {
	if i := strings.Index(target, "://"); i >= 0 {
		target = target[i+3:]
	}
	if i := strings.IndexByte(target, '/'); i >= 0 {
		target = target[:i]
	}
	return target
}

// Set arms a single fault toward target, replacing any existing schedule.
func (t *Transport) Set(target string, f NetFault) {
	t.Schedule(target, []NetFault{f})
}

// Schedule arms an ordered fault plan toward target: each step applies until
// its Count drains, then the next step takes over. A step with Count 0 pins
// until healed. Replaces any existing schedule for the target.
func (t *Transport) Schedule(target string, steps []NetFault) {
	t.mu.Lock()
	t.faults[hostKey(target)] = &netFaultState{steps: append([]NetFault(nil), steps...)}
	t.mu.Unlock()
}

// Partition makes target unreachable from this transport's source until
// healed — the canonical one-way partition.
func (t *Transport) Partition(target string) {
	t.Set(target, NetFault{Drop: true})
}

// Heal clears every fault toward target; subsequent requests pass through.
func (t *Transport) Heal(target string) {
	t.mu.Lock()
	delete(t.faults, hostKey(target))
	t.mu.Unlock()
}

// HealAll clears every armed fault on every endpoint.
func (t *Transport) HealAll() {
	t.mu.Lock()
	t.faults = make(map[string]*netFaultState)
	t.mu.Unlock()
}

// Injected reports how many requests any fault has affected.
func (t *Transport) Injected() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// take decides under the lock whether this request is affected and by which
// fault, consuming schedule state (Count, seeded Rate draws) as it goes.
func (t *Transport) take(host string) (NetFault, time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.faults[host]
	if st == nil || len(st.steps) == 0 {
		return NetFault{}, 0, false
	}
	f := st.steps[0]
	if f.Rate > 0 && t.rng.Float64() >= f.Rate {
		return NetFault{}, 0, false
	}
	var jitter time.Duration
	if f.Jitter > 0 {
		jitter = time.Duration(t.rng.Int63n(int64(f.Jitter)))
	}
	if f.Count > 0 {
		f.Count--
		if f.Count == 0 {
			st.steps = st.steps[1:]
		} else {
			st.steps[0] = f
		}
	}
	t.total++
	return f, jitter, true
}

// RoundTrip applies the target endpoint's current fault (if any) and forwards
// the request through the inner transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, jitter, affected := t.take(req.URL.Host)
	if !affected {
		return t.inner.RoundTrip(req)
	}
	if d := f.Latency + jitter; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	switch {
	case f.Hang:
		<-req.Context().Done()
		return nil, fmt.Errorf("fault: hung endpoint %s: %w", req.URL.Host, req.Context().Err())
	case f.Drop:
		return nil, fmt.Errorf("fault: partitioned from %s: %w", req.URL.Host, ErrInjected)
	case f.Status != 0:
		body := fmt.Sprintf("{\"error\":\"fault: injected %d from %s\"}\n", f.Status, req.URL.Host)
		resp := &http.Response{
			StatusCode: f.Status,
			Status:     fmt.Sprintf("%d %s", f.Status, http.StatusText(f.Status)),
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}
		// The request never reaches the endpoint; drain and close its body so
		// the client does not leak it.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return resp, nil
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if f.TruncateBody > 0 {
		resp.Body = &truncatedBody{rc: resp.Body, remaining: f.TruncateBody}
		resp.ContentLength = -1
	}
	if f.CorruptByte > 0 {
		resp.Body = &corruptingBody{rc: resp.Body, at: f.CorruptByte}
	}
	return resp, nil
}

// truncatedBody yields the first remaining bytes of the wrapped body, then
// fails the read with io.ErrUnexpectedEOF — a torn response the client can
// detect only by reading.
type truncatedBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF && b.remaining <= 0 {
		// The real body ended exactly at the cut; still report the tear.
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }

// corruptingBody flips bit 0x40 of the (1-based) at-th body byte as it
// streams through — silent corruption only an end-to-end checksum catches.
type corruptingBody struct {
	rc     io.ReadCloser
	at     int64
	offset int64
}

func (b *corruptingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 && b.at > b.offset && b.at <= b.offset+int64(n) {
		p[b.at-b.offset-1] ^= 0x40
	}
	b.offset += int64(n)
	return n, err
}

func (b *corruptingBody) Close() error { return b.rc.Close() }
