package baselines

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tcss/internal/fault"
	"tcss/internal/geo"
)

// fitSeq fits one sequential model on the shared fixture.
func fitSeq(t *testing.T, fx *fixture, name string) SeqServer {
	t.Helper()
	m, ok := SeqLookup(name)
	if !ok {
		t.Fatalf("SeqLookup(%q) = false", name)
	}
	if err := m.(Recommender).Fit(fx.ctx); err != nil {
		t.Fatalf("%s: Fit: %v", name, err)
	}
	return m
}

// sampleQueries exercises both serving entry points and returns all results
// for exact comparison.
func sampleQueries(t *testing.T, m SeqServer) [][]ScoredPOI {
	t.Helper()
	users, pois, times := m.Dims()
	if users == 0 || pois == 0 || times == 0 {
		t.Fatalf("%s: zero dims after fit", m.Name())
	}
	var out [][]ScoredPOI
	seq := []Visit{{POI: 1, TimeIndex: 0}, {POI: 3, TimeIndex: 1}, {POI: 0, TimeIndex: 2}}
	for user := 0; user < users; user += 5 {
		for k := 0; k < times; k += 2 {
			rec, err := m.RecommendTopN(user, k, 5)
			if err != nil {
				t.Fatalf("%s: RecommendTopN(%d,%d): %v", m.Name(), user, k, err)
			}
			nxt, err := m.NextTopN(user, seq, k, 5)
			if err != nil {
				t.Fatalf("%s: NextTopN(%d,%d): %v", m.Name(), user, k, err)
			}
			out = append(out, rec, nxt)
		}
	}
	return out
}

func TestSeqStateRoundTrip(t *testing.T) {
	fx := newFixture(3)
	for _, name := range []string{"STRNN", "STGN", "STAN"} {
		t.Run(name, func(t *testing.T) {
			m := fitSeq(t, fx, name)
			want := sampleQueries(t, m)

			path := filepath.Join(t.TempDir(), "seq.state")
			if err := SaveSeqState(nil, path, 2, 7, m); err != nil {
				t.Fatalf("SaveSeqState: %v", err)
			}
			loaded, gen, err := LoadSeqState(path, fx.ctx.Dist)
			if err != nil {
				t.Fatalf("LoadSeqState: %v", err)
			}
			if gen != 7 {
				t.Fatalf("generation = %d, want 7", gen)
			}
			if loaded.Name() != name {
				t.Fatalf("loaded name = %q, want %q", loaded.Name(), name)
			}
			got := sampleQueries(t, loaded)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("loaded model results differ from the fitted model")
			}
			u1, p1, k1 := m.Dims()
			u2, p2, k2 := loaded.Dims()
			if u1 != u2 || p1 != p2 || k1 != k2 {
				t.Fatalf("dims changed across round trip: (%d,%d,%d) vs (%d,%d,%d)", u1, p1, k1, u2, p2, k2)
			}
		})
	}
}

func TestSeqStateCorruptionRejected(t *testing.T) {
	fx := newFixture(4)
	m := fitSeq(t, fx, "STRNN")
	path := filepath.Join(t.TempDir(), "seq.state")
	if err := SaveSeqState(nil, path, 0, 1, m); err != nil {
		t.Fatalf("SaveSeqState: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped payload byte must be caught by the CRC.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	bad := filepath.Join(t.TempDir(), "flipped.state")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSeqState(bad, fx.ctx.Dist); !errors.Is(err, fault.ErrChecksum) {
		t.Fatalf("bit-flipped load err = %v, want ErrChecksum", err)
	}

	// A truncated file must be rejected too.
	trunc := filepath.Join(t.TempDir(), "trunc.state")
	if err := os.WriteFile(trunc, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSeqState(trunc, fx.ctx.Dist); err == nil {
		t.Fatal("truncated load must fail")
	}
}

func TestSeqStateFallbackLadder(t *testing.T) {
	fx := newFixture(5)
	m := fitSeq(t, fx, "STGN")
	path := filepath.Join(t.TempDir(), "seq.state")
	if err := SaveSeqState(nil, path, 2, 1, m); err != nil {
		t.Fatalf("save gen 1: %v", err)
	}
	if err := SaveSeqState(nil, path, 2, 2, m); err != nil {
		t.Fatalf("save gen 2: %v", err)
	}
	// Corrupt the newest file: the ladder must fall back to path.1 (gen 1).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, gen, from, err := LoadSeqStateFallback(path, fx.ctx.Dist)
	if err != nil {
		t.Fatalf("LoadSeqStateFallback: %v", err)
	}
	if gen != 1 {
		t.Fatalf("fallback generation = %d, want 1", gen)
	}
	if from != fault.RotatedPath(path, 1) {
		t.Fatalf("fallback path = %q, want rung 1", from)
	}
	if loaded.Name() != "STGN" {
		t.Fatalf("fallback name = %q", loaded.Name())
	}
}

func TestSeqStateFutureVersionRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.state")
	err := fault.WriteFileAtomic(nil, path, func(w io.Writer) error {
		return fault.WriteFramed(w, SeqStateVersion+1, []byte(`{"kind":"STRNN"}`))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSeqState(path, nil); !errors.Is(err, ErrSeqStateVersion) {
		t.Fatalf("future version err = %v, want ErrSeqStateVersion", err)
	}
}

// TestSeqStateFixtureStable pins the sequential state format: the fixture was
// written by the commit before the reader was narrowed to the one version the
// writer emits; it must load, and saving again must reproduce it byte for
// byte. The same document without its frame — a format that never existed —
// is refused, as is every frame version but SeqStateVersion.
func TestSeqStateFixtureStable(t *testing.T) {
	fixture := filepath.Join("testdata", "strnn_state_v1.json")
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geo.Point, 4)
	for j := range pts {
		pts[j] = geo.Point{Lat: 30 + 0.01*float64(j), Lon: -97 - 0.02*float64(j)}
	}
	dist := geo.NewDistanceMatrix(pts)
	m, gen, err := LoadSeqState(fixture, dist)
	if err != nil {
		t.Fatal(err)
	}
	if users, pois, times := m.Dims(); m.Name() != "STRNN" || gen != 4 || users != 3 || pois != 4 || times != 2 {
		t.Fatalf("loaded %s generation %d dims %dx%dx%d", m.Name(), gen, users, pois, times)
	}
	again := filepath.Join(t.TempDir(), "again.state")
	if err := SaveSeqState(nil, again, 0, gen, m); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(again); !bytes.Equal(got, want) {
		t.Fatalf("re-saved state differs from the fixture:\n%s\nvs\n%s", got, want)
	}

	_, payload, err := fault.ReadFramed(want)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, frame func(w io.Writer) error) string {
		p := filepath.Join(t.TempDir(), name)
		if err := fault.WriteFileAtomic(nil, p, frame); err != nil {
			t.Fatal(err)
		}
		return p
	}
	unsealed := write("unsealed", func(w io.Writer) error { _, err := w.Write(payload); return err })
	if _, _, err := LoadSeqState(unsealed, dist); err == nil || errors.Is(err, fault.ErrChecksum) || errors.Is(err, ErrSeqStateVersion) {
		t.Fatalf("unsealed state: err = %v, want a header error", err)
	}
	for _, v := range []int{0, -1, SeqStateVersion + 1} {
		p := write("other", func(w io.Writer) error { return fault.WriteFramed(w, v, payload) })
		if _, _, err := LoadSeqState(p, dist); !errors.Is(err, ErrSeqStateVersion) {
			t.Fatalf("frame v%d: err = %v, want ErrSeqStateVersion", v, err)
		}
	}
}
