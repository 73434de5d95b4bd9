package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tcss/internal/core"
	"tcss/internal/fault"
)

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDegradedModeBreaker drives the write path through injected failures and
// checks the full degradation contract: the breaker trips after threshold
// consecutive failures, writes are rejected with 503 + Retry-After while
// open, /healthz reports degraded with a reason, reads keep serving the last
// good snapshot byte-identically throughout, and after the backoff a probe
// write recovers the breaker.
func TestDegradedModeBreaker(t *testing.T) {
	hooks := fault.NewHooks()
	srv, hs := newTestServer(t, Options{Faults: hooks})
	fresh := findFreshCell(t, srv)

	readURL := hs.URL + "/v1/recommend?user=1&t=0&n=5"
	baseStatus, baseline := getRaw(t, readURL)
	if baseStatus != http.StatusOK {
		t.Fatalf("baseline read status %d", baseStatus)
	}

	// Readers hammer the server across the whole degradation episode; every
	// response must be 200 and byte-identical to the healthy baseline.
	var readers sync.WaitGroup
	stop := make(chan struct{})
	readErr := make(chan string, 1)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, body := func() (int, []byte) {
					resp, err := http.Get(readURL)
					if err != nil {
						return 0, nil
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					return resp.StatusCode, b
				}()
				if status != http.StatusOK || !bytes.Equal(body, baseline) {
					select {
					case readErr <- "read degraded during write-path failure":
					default:
					}
					return
				}
			}
		}()
	}

	// breakerThreshold injected failures trip the breaker.
	hooks.FailNext(breakerThreshold, nil)
	for i := 0; i < breakerThreshold; i++ {
		resp, _ := postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("injected failure %d: status %d, want 500", i, resp.StatusCode)
		}
	}

	// Open breaker: writes shed instantly with Retry-After.
	resp, _ := postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker observe status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded rejection carries no Retry-After")
	}

	var health healthResponse
	hr := getJSON(t, hs.URL+"/healthz", &health)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status %d, want 200 (reads still serve)", hr.StatusCode)
	}
	if health.Status != "degraded" || health.Breaker != "open" || health.Reason == "" {
		t.Fatalf("degraded healthz = %+v", health)
	}

	// The degradation episode is over once the probe publishes generation 1,
	// which legitimately changes read responses — stop the baseline readers
	// first.
	close(stop)
	readers.Wait()
	select {
	case msg := <-readErr:
		t.Fatal(msg)
	default:
	}

	// Past the (jittered, < 1.25x breakerBaseBackoff) backoff the next write
	// is the probe; the injection script is exhausted, so it succeeds and
	// closes the breaker.
	time.Sleep(150 * time.Millisecond)
	resp, got := postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}})
	if resp.StatusCode != http.StatusOK || got.Added != 1 || got.Generation != 1 {
		t.Fatalf("probe observe = %d %+v, want 200 added 1 gen 1", resp.StatusCode, got)
	}
	getJSON(t, hs.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("post-recovery healthz = %+v", health)
	}

	var met metricsSnapshot
	getJSON(t, hs.URL+"/metrics", &met)
	rel := &met.Reliability
	if rel.ObserveFailures.Load() != breakerThreshold {
		t.Fatalf("observe_failures = %d, want %d", rel.ObserveFailures.Load(), breakerThreshold)
	}
	if rel.BreakerTrips.Load() != 1 || rel.BreakerRecoveries.Load() != 1 {
		t.Fatalf("breaker trips/recoveries = %d/%d, want 1/1", rel.BreakerTrips.Load(), rel.BreakerRecoveries.Load())
	}
	if rel.BreakerRejected.Load() < 1 {
		t.Fatalf("breaker_rejected = %d, want >= 1", rel.BreakerRejected.Load())
	}
	if rel.BreakerState != "closed" {
		t.Fatalf("breaker_state = %q, want closed", rel.BreakerState)
	}
}

// TestMetricsMoveUnderInjectedFaults asserts the reliability counters are
// live: a bit-rot injection on the snapshot path makes the save's read-back
// verification reject the file (checksum_rejected_loads, save_retries) and
// the retry then succeeds; an injected observe failure moves
// observe_failures without tripping the threshold-3 breaker.
func TestMetricsMoveUnderInjectedFaults(t *testing.T) {
	hooks := fault.NewHooks()
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	// Byte 200 sits inside the CRC-framed payload of the v5 binary snapshot
	// (the first fault.FixedHeaderSize bytes are the fixed header, whose pad
	// region tolerates flips by design).
	inj := fault.NewInjectFS(nil, fault.Plan{FlipByteAt: 200})
	srv, hs := newTestServer(t, Options{SnapshotPath: path, FS: inj, Faults: hooks})
	_ = srv

	var met metricsSnapshot
	getJSON(t, hs.URL+"/metrics", &met)
	if met.Reliability.SaveRetries.Load() != 0 || met.Reliability.ChecksumRejectedLoads.Load() != 0 {
		t.Fatalf("counters dirty at start: %+v", &met.Reliability)
	}

	// The flipped byte corrupts the first save in flight; read-back catches
	// it and the retry (past the one-shot fault) succeeds.
	resp, err := http.Post(hs.URL+"/v1/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save status %d, want 200 after retry", resp.StatusCode)
	}
	if _, _, err := core.LoadFileVersioned(path); err != nil {
		t.Fatalf("published snapshot does not load: %v", err)
	}

	getJSON(t, hs.URL+"/metrics", &met)
	rel := &met.Reliability
	if rel.ChecksumRejectedLoads.Load() < 1 {
		t.Fatalf("checksum_rejected_loads = %d, want >= 1", rel.ChecksumRejectedLoads.Load())
	}
	if rel.SaveRetries.Load() < 1 {
		t.Fatalf("save_retries = %d, want >= 1", rel.SaveRetries.Load())
	}
	if rel.SaveFailures.Load() != 0 {
		t.Fatalf("save_failures = %d, want 0 (retry recovered)", rel.SaveFailures.Load())
	}
	if met.Snapshot.Saves.Load() != 1 {
		t.Fatalf("snapshot saves = %d, want 1", met.Snapshot.Saves.Load())
	}

	// One injected observe failure: counter moves, breaker stays closed
	// (default threshold 3).
	hooks.FailNext(1, nil)
	fresh := findFreshCell(t, srv)
	if resp, _ := postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected observe status %d, want 500", resp.StatusCode)
	}
	getJSON(t, hs.URL+"/metrics", &met)
	if met.Reliability.ObserveFailures.Load() != 1 {
		t.Fatalf("observe_failures = %d, want 1", met.Reliability.ObserveFailures.Load())
	}
	if met.Reliability.BreakerState != "closed" || met.Reliability.BreakerTrips.Load() != 0 {
		t.Fatalf("one failure must not trip the breaker: %+v", &met.Reliability)
	}
}

// TestSaveReadBackJudgesOnlyTheNewestRung: the read-back must verify the file
// a restart reads first and only that file. With an intact previous snapshot
// rotated to path.1 and the new one torn in flight, a read-back that walked
// the ladder the way a restart does would find path.1 and call the save good.
func TestSaveReadBackJudgesOnlyTheNewestRung(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := snapModel(1000).SaveFileBinary(path, 1); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, Options{
		SnapshotPath: path,
		SnapshotKeep: 1,
		FS:           fault.NewInjectFS(nil, fault.Plan{FlipByteAt: 200}),
	})
	err := srv.trySave(srv.snap.load())
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("save over a silently flipped byte: err = %v, want the read-back to fail with ErrChecksum", err)
	}
	if n := srv.met.Reliability.ChecksumRejectedLoads.Load(); n != 1 {
		t.Fatalf("checksum_rejected_loads = %d, want 1", n)
	}
	// The ladder is what would have hidden it: a restart does recover, from
	// the previous generation at path.1.
	_, f, err := core.Open(path)
	if err != nil || f.From != fault.RotatedPath(path, 1) || f.Generation != 1 {
		t.Fatalf("restart after the torn save: file=%+v err=%v, want path.1 at generation 1", f, err)
	}
	f.Close()
}

// TestShutdownDrainsAndSaves checks the graceful path: Shutdown sheds new
// writes, drains the queue, persists a final snapshot carrying the last
// generation, and leaves reads serving.
func TestShutdownDrainsAndSaves(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	srv, hs := newTestServer(t, Options{SnapshotPath: path})
	fresh := findFreshCell(t, srv)

	if resp, got := postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}}); resp.StatusCode != http.StatusOK || got.Generation != 1 {
		t.Fatalf("observe = %d %+v", resp.StatusCode, got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	m, gen, err := core.LoadFileVersioned(path)
	if err != nil {
		t.Fatalf("final snapshot does not load: %v", err)
	}
	if gen != 1 || m == nil {
		t.Fatalf("final snapshot generation %d, want 1", gen)
	}

	// New writes are shed; reads still serve the last snapshot.
	if resp, _ := postObserve(t, hs.URL, observeRequest{CheckIns: []observeCheckIn{fresh}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown observe status %d, want 503", resp.StatusCode)
	}
	if status, _ := getRaw(t, hs.URL+"/v1/recommend?user=1&t=0&n=3"); status != http.StatusOK {
		t.Fatalf("post-shutdown read status %d, want 200", status)
	}
	var health healthResponse
	getJSON(t, hs.URL+"/healthz", &health)
	if health.Status != "degraded" || health.Reason != "server draining" {
		t.Fatalf("post-shutdown healthz = %+v", health)
	}

	// Shutdown and Close are idempotent and combinable.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	srv.Close()
}
