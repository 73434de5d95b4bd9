package cluster

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tcss/internal/geo"
	"tcss/internal/serve"
	"tcss/internal/wire"
)

// Replicator keeps one replica server on its primary's snapshot generation by
// polling GET /v1/snapshot/bin?after=<last> and publishing verified shipments
// through serve.Server.Publish. A corrupt shipment (fault.ErrChecksum from
// the CRC32-C frame) or any transport failure leaves the replica serving its
// last good generation — replication can only move the replica forward, never
// break it.
type Replicator struct {
	// Server is the read-only replica the shipments are published into.
	Server *serve.Server
	// Primary is the base URL of the shard primary, e.g. "http://127.0.0.1:8001".
	Primary string
	// Dist is the replica's local POI geography (coordinates and d_max),
	// grafted into shipped side information, which does not carry it.
	Dist *geo.DistanceMatrix
	// Client is the HTTP client for fetches; http.DefaultClient when nil.
	// Hung primaries are bounded by SyncTimeout, not a client-wide timeout.
	Client *http.Client
	// Interval is the Run poll period; 500ms when zero. Tests drive SyncOnce
	// directly and never wait on this.
	Interval time.Duration
	// SyncTimeout bounds one SyncOnce cycle (fetch + decode + publish); 10s
	// when zero. Without it a hung primary would wedge the sync goroutine
	// forever — the replica would stop converging and never report why.
	SyncTimeout time.Duration
	// MaxBackoff caps the jittered exponential backoff Run applies after
	// consecutive sync failures; 16× the interval when zero.
	MaxBackoff time.Duration
	// Seed makes the backoff jitter deterministic in tests; 0 seeds from the
	// primary URL so concurrently-started replicas don't sync in lockstep.
	Seed int64

	last       atomic.Uint64 // generation of the last applied shipment
	primaryGen atomic.Uint64 // newest generation the primary has advertised
}

// Generation returns the last generation this replicator applied (zero before
// the first successful sync; the replica's own bootstrap snapshot may be
// newer).
func (r *Replicator) Generation() uint64 { return r.last.Load() }

func (r *Replicator) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

// PrimaryGeneration returns the newest generation the primary has advertised
// to this replicator (zero before the first reachable sync). The gap between
// it and the replica's own generation is the replica's staleness.
func (r *Replicator) PrimaryGeneration() uint64 { return r.primaryGen.Load() }

// notePrimaryGen records the generation the primary advertised in a shipment
// response and forwards it to the replica server so /healthz and /metrics can
// report generation lag against MaxGenLag.
func (r *Replicator) notePrimaryGen(resp *http.Response) {
	gen, err := strconv.ParseUint(resp.Header.Get(wire.GenerationHeader), 10, 64)
	if err != nil {
		return // no (or a malformed) header: nothing advertised
	}
	for {
		cur := r.primaryGen.Load()
		if gen <= cur || r.primaryGen.CompareAndSwap(cur, gen) {
			break
		}
	}
	r.Server.SetPrimaryGeneration(gen)
}

// SyncOnce performs one poll-fetch-publish cycle and reports the replica's
// generation afterwards plus whether a new snapshot was applied. The whole
// cycle runs under SyncTimeout, so a hung primary costs one bounded failed
// sync instead of a wedged goroutine. Every outcome is recorded in the
// replica's /metrics via RecordReplication.
func (r *Replicator) SyncOnce(ctx context.Context) (gen uint64, applied bool, err error) {
	timeout := r.SyncTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	after := r.last.Load()
	if cur := r.Server.Generation(); cur > after {
		after = cur // don't re-fetch what bootstrap already gave us
	}
	url := fmt.Sprintf("%s/v1/snapshot/bin?after=%d", r.Primary, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		r.Server.RecordReplication(err)
		return after, false, err
	}
	resp, err := r.client().Do(req)
	if err != nil {
		r.Server.RecordReplication(err)
		return after, false, fmt.Errorf("cluster: fetching shipment: %w", err)
	}
	defer resp.Body.Close()
	r.notePrimaryGen(resp)
	switch resp.StatusCode {
	case http.StatusNoContent:
		// Already current: a successful sync that shipped nothing.
		r.Server.RecordReplication(nil)
		return after, false, nil
	case http.StatusOK:
	default:
		io.Copy(io.Discard, resp.Body)
		err := fmt.Errorf("cluster: primary answered %s to shipment fetch", resp.Status)
		r.Server.RecordReplication(err)
		return after, false, err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		r.Server.RecordReplication(err)
		return after, false, fmt.Errorf("cluster: reading shipment: %w", err)
	}
	model, side, shippedGen, err := serve.DecodeShipment(body, r.Dist)
	if err != nil {
		// Corrupt or torn shipment: counted (checksum_rejected when the CRC
		// caught it), last good snapshot keeps serving.
		r.Server.RecordReplication(err)
		return after, false, err
	}
	gen, err = r.Server.Publish(ctx, model, side, shippedGen)
	if err != nil {
		r.Server.RecordReplication(err)
		return after, false, err
	}
	// Open-world growth at the primary may have extended the POI geography
	// (DecodeShipment grew or rebuilt it from shipped coordinates); keep the
	// grown one as the local baseline so the next sync grafts it directly.
	if side.Dist != nil && (r.Dist == nil || side.Dist.N > r.Dist.N) {
		r.Dist = side.Dist
	}
	r.Server.RecordReplication(nil)
	r.last.Store(gen)
	return gen, gen == shippedGen, nil
}

// Run polls SyncOnce every Interval until ctx is cancelled, backing off
// exponentially (with seeded jitter) on consecutive failures so a struggling
// primary isn't hammered by every replica at full poll rate: after k straight
// failures the next poll waits interval·2^k, jittered to [wait/2, wait) and
// capped at MaxBackoff. One success resets the cadence. Real deployments run
// this in a goroutine; tests call SyncOnce directly for deterministic,
// sleep-free replication.
func (r *Replicator) Run(ctx context.Context) {
	interval := r.Interval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	maxBackoff := r.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 16 * interval
	}
	seed := r.Seed
	if seed == 0 {
		for _, c := range r.Primary {
			seed = seed*31 + int64(c)
		}
		seed++ // never 0: rand.NewSource(0) is valid but keep intent explicit
	}
	rng := rand.New(rand.NewSource(seed))

	var fails int
	wait := interval
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			if _, _, err := r.SyncOnce(ctx); err != nil && ctx.Err() == nil {
				// Errors are in /metrics; back off and keep polling.
				if fails < 30 {
					fails++
				}
				backoff := interval << uint(fails)
				if backoff <= 0 || backoff > maxBackoff {
					backoff = maxBackoff
				}
				wait = backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)))
			} else {
				fails = 0
				wait = interval
			}
			timer.Reset(wait)
		}
	}
}
