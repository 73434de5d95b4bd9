package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcss/internal/core"
	"tcss/internal/fault"
)

// shipTestSnapshot builds a snapshot from a freshly fitted recommender.
func shipTestSnapshot(t *testing.T) (*Snapshot, *RecommenderSource) {
	t.Helper()
	rec := fitRecommender(t, 21)
	src := &RecommenderSource{Rec: rec}
	return &Snapshot{Gen: 7, Model: rec.Model, Side: rec.Side, Created: time.Now()}, src
}

func TestShipmentRoundTrip(t *testing.T) {
	snap, _ := shipTestSnapshot(t)
	wire, err := EncodeShipment(snap)
	if err != nil {
		t.Fatal(err)
	}
	model, side, gen, err := DecodeShipment(wire, snap.Side.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if gen != snap.Gen {
		t.Fatalf("generation %d shipped as %d", snap.Gen, gen)
	}
	if model.I != snap.Model.I || model.J != snap.Model.J || model.K != snap.Model.K {
		t.Fatalf("model shape changed in transit: %dx%dx%d", model.I, model.J, model.K)
	}
	if side.Dist != snap.Side.Dist {
		t.Fatal("local distance matrix was not grafted into the decoded side info")
	}
	// Bit-identical scoring on both ends, the property failover relies on.
	for _, user := range []int{0, 3, 17} {
		want := snap.Model.TopNScratch(user, 2, 5, snap.Side.OwnPOIs[user], core.NewRecScratch(snap.Model))
		got := model.TopNScratch(user, 2, 5, side.OwnPOIs[user], core.NewRecScratch(model))
		if len(want) != len(got) {
			t.Fatalf("user %d: %d vs %d recs", user, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("user %d rank %d: sent %+v, received %+v", user, i, want[i], got[i])
			}
		}
	}
}

func TestShipmentCorruptionRejected(t *testing.T) {
	snap, _ := shipTestSnapshot(t)
	wire, err := EncodeShipment(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte well past the fixed header: the outer CRC must
	// catch it before any decoding happens.
	for _, at := range []int{fault.FixedHeaderSize + 1, len(wire) / 2, len(wire) - 1} {
		bad := bytes.Clone(wire)
		bad[at] ^= 0x40
		if _, _, _, err := DecodeShipment(bad, snap.Side.Dist); !errors.Is(err, fault.ErrChecksum) {
			t.Fatalf("flip at %d: want ErrChecksum, got %v", at, err)
		}
	}
	// Truncation is also a frame error, though not necessarily a CRC one.
	if _, _, _, err := DecodeShipment(wire[:len(wire)-3], snap.Side.Dist); err == nil {
		t.Fatal("truncated shipment decoded cleanly")
	}
}

// TestShipmentUnsortedOwnPOIsRejected: the scan panics on an unsorted skip
// list, so a shipment carrying one must fail to decode instead of being
// published and taking the replica's recommend path down with it.
func TestShipmentUnsortedOwnPOIsRejected(t *testing.T) {
	snap, _ := shipTestSnapshot(t)
	side := *snap.Side
	side.OwnPOIs = append([][]int(nil), side.OwnPOIs...)
	side.OwnPOIs[3] = []int{9, 2, 5}
	wire, err := EncodeShipment(&Snapshot{Gen: snap.Gen, Model: snap.Model, Side: &side})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeShipment(wire, side.Dist); err == nil || !strings.Contains(err.Error(), "user 3") {
		t.Fatalf("unsorted own-POI list decoded: err = %v", err)
	}
}

func TestServeSnapshotBin(t *testing.T) {
	srv, hs := newTestServer(t, Options{})
	cur := srv.snap.load()

	resp, err := http.Get(hs.URL + "/v1/snapshot/bin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Generation"); got == "" {
		t.Fatal("missing X-Generation header")
	}
	model, _, gen, err := DecodeShipment(body, cur.Side.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if gen != cur.Gen || model.I != cur.Model.I {
		t.Fatalf("shipped gen %d model %d users, serving gen %d model %d users",
			gen, model.I, cur.Gen, cur.Model.I)
	}

	// ?after=<current> is the cheap no-news poll: 204, no body.
	resp, err = http.Get(hs.URL + "/v1/snapshot/bin?after=" + strconv.FormatUint(cur.Gen, 10))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("poll at current generation: status %d, want 204", resp.StatusCode)
	}

	resp, err = http.Get(hs.URL + "/v1/snapshot/bin?after=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus after: status %d, want 400", resp.StatusCode)
	}
}

func TestOwnershipMisroute(t *testing.T) {
	srv, hs := newTestServer(t, Options{
		ShardName: "shard-0",
		Role:      "primary",
		Owns:      func(user int) bool { return user%2 == 0 },
	})

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/v1/recommend?user=4&t=2&n=5"); got != http.StatusOK {
		t.Fatalf("owned user: status %d", got)
	}
	if got := get("/v1/recommend?user=3&t=2&n=5"); got != http.StatusMisdirectedRequest {
		t.Fatalf("foreign user recommend: status %d, want 421", got)
	}
	if got := get("/v1/explain?user=5&poi=1&t=2"); got != http.StatusMisdirectedRequest {
		t.Fatalf("foreign user explain: status %d, want 421", got)
	}
	resp, err := http.Post(hs.URL+"/v1/observe", "application/json",
		strings.NewReader(`{"checkins":[{"user":3,"poi":1,"month":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign user observe: status %d, want 421", resp.StatusCode)
	}

	m := srv.collectMetrics()
	if m.Shard.Name != "shard-0" || m.Shard.Role != "primary" {
		t.Fatalf("shard identity in metrics: %+v", &m.Shard)
	}
	if m.Shard.Misrouted.Load() != 3 {
		t.Fatalf("misrouted counter = %d, want 3", m.Shard.Misrouted.Load())
	}
}

func TestReadOnlyReplicaRejectsObserve(t *testing.T) {
	rec := fitRecommender(t, 21)
	srv, err := NewFromSource(&StaticSource{Model: rec.Model, Side: rec.Side, Gran: rec.Gran},
		Options{ShardName: "shard-0", Role: "replica"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hs := ts.URL

	resp, err := http.Post(hs+"/v1/observe", "application/json",
		strings.NewReader(`{"checkins":[{"user":1,"poi":1,"month":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("observe at replica: status %d, want 421", resp.StatusCode)
	}
	if !strings.Contains(eb.Error, "read-only") {
		t.Fatalf("error body %q does not explain read-only", eb.Error)
	}

	// Reads still work.
	r2, err := http.Get(hs + "/v1/recommend?user=1&t=2&n=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("replica recommend: status %d", r2.StatusCode)
	}
}

func TestPublishMonotonic(t *testing.T) {
	rec := fitRecommender(t, 21)
	srv, err := NewFromSource(&StaticSource{Model: rec.Model, Side: rec.Side, Gran: rec.Gran}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	base := srv.snap.load().Gen
	gen, err := srv.Publish(ctx, rec.Model, rec.Side, base+5)
	if err != nil || gen != base+5 {
		t.Fatalf("publish ahead: gen=%d err=%v", gen, err)
	}
	if got := srv.snap.load().Gen; got != base+5 {
		t.Fatalf("snapshot generation %d after publish, want %d", got, base+5)
	}
	// A stale shipment must be a no-op that reports the live generation.
	gen, err = srv.Publish(ctx, rec.Model, rec.Side, base+2)
	if err != nil || gen != base+5 {
		t.Fatalf("stale publish: gen=%d err=%v, want no-op at %d", gen, err, base+5)
	}
	m := srv.collectMetrics()
	if m.Replication.Applied.Load() != 1 {
		t.Fatalf("replication applied = %d, want 1", m.Replication.Applied.Load())
	}
}

func TestRecordReplication(t *testing.T) {
	rec := fitRecommender(t, 21)
	srv, err := NewFromSource(&StaticSource{Model: rec.Model, Side: rec.Side, Gran: rec.Gran}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.RecordReplication(nil)
	srv.RecordReplication(errors.New("connection refused"))
	srv.RecordReplication(fault.ErrChecksum)
	m := srv.collectMetrics()
	if m.Replication.Syncs.Load() != 1 || m.Replication.Failures.Load() != 2 || m.Replication.ChecksumRejected.Load() != 1 {
		t.Fatalf("replication counters %+v", &m.Replication)
	}
}
