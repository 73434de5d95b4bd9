package baselines

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"testing"

	"tcss/internal/fault"
	"tcss/internal/geo"
)

// fuzzDist is the distance matrix every fuzzed state loads against: the
// recurrent models refuse any other POI count, so seeds use 4 POIs.
func fuzzDist() *geo.DistanceMatrix {
	return geo.NewDistanceMatrix([]geo.Point{{Lat: 30, Lon: -97}, {Lat: 30.1, Lon: -97}, {Lat: 30, Lon: -97.1}, {Lat: 30.2, Lon: -97.2}})
}

// seqSeedPayload builds a tiny model of the given kind (3 users, 4 POIs, 2
// time units, rank 2) without fitting it and returns its state payload.
func seqSeedPayload(tb testing.TB, kind string) []byte {
	tb.Helper()
	m, _ := SeqLookup(kind)
	m.build(3, 4, 2, 2, rand.New(rand.NewSource(1)))
	switch m := m.(type) {
	case *recurrent:
		m.finalH, m.fit = [][]float64{{0.5, -1}, {0, 2}, {-0.25, 3}}, true
	case *STAN:
		m.seqs, m.fit = [][]Visit{{{POI: 1, TimeIndex: 0}, {POI: 3, TimeIndex: 1}}, nil, {{POI: 0, TimeIndex: 1}}}, true
	}
	st, err := m.captureState()
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := json.Marshal(st)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// writeSeqState seals payload in a valid SeqStateVersion frame at path.
func writeSeqState(tb testing.TB, path string, payload []byte) int {
	tb.Helper()
	var framed bytes.Buffer
	if err := fault.WriteFramed(&framed, SeqStateVersion, payload); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, framed.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return framed.Len()
}

// oversizedStates declare a dimension far beyond what their parameters
// carry. Each one's first allocation from that dimension is past what the
// runtime can ever grant (or wraps to zero), so none of them is a real
// allocation even where the check is missing.
var oversizedStates = map[string]string{
	"STRNN pois": `{"kind":"STRNN","rank":8,"users":1,"pois":70368744177664,"times":2,"params":{}}`,
	"STRNN times": `{"kind":"STRNN","rank":2,"users":1,"pois":4,"times":70368744177664,
		"params":{"poi.W":[0,0,0,0,0,0,0,0],"cell.Wh":[0,0,0,0]}}`,
	"STGN rank":  `{"kind":"STGN","rank":70368744177664,"users":1,"pois":4,"times":2,"params":{"cell.W":[0,0,0,0]}}`,
	"STAN users": `{"kind":"STAN","rank":8,"users":70368744177664,"pois":4,"times":2,"params":{}}`,
	"STAN pois":  `{"kind":"STAN","rank":8,"users":1,"pois":70368744177664,"times":2,"params":{"user.W":[0,0,0,0,0,0,0,0]}}`,
	// pois·rank is 2⁶⁴, which wraps to 0 and would match an empty table.
	"STAN pois wrapping": `{"kind":"STAN","rank":4,"users":1,"pois":4611686018427387904,"times":1,
		"params":{"user.W":[0,0,0,0],"poi.W":[],"time.W":[0,0,0,0]},"sequences":[[]]}`,
}

// TestSeqStateRefusesUncarriedDims: a CRC-valid state file whose declared
// users, POIs, time units or rank its own parameters do not carry is refused
// before anything is sized from them.
func TestSeqStateRefusesUncarriedDims(t *testing.T) {
	dir := t.TempDir()
	for name, payload := range oversizedStates {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, "state")
			writeSeqState(t, path, []byte(payload))
			if _, _, err := LoadSeqState(path, fuzzDist()); err == nil {
				t.Fatal("loaded a state whose parameters do not carry its dims")
			}
		})
	}
}

// FuzzLoadSeqState feeds LoadSeqState — the loader behind `tcss serve
// -seq-state` — arbitrary payloads behind a valid frame, since the checksum
// is integrity, not authentication. It must never panic, never allocate more
// than a multiple of its input (a declared dimension is not a reason to
// allocate), and a state it accepts must save to a file that loads back and
// saves to the same bytes.
func FuzzLoadSeqState(f *testing.F) {
	for _, kind := range []string{"STRNN", "STGN", "STAN"} {
		f.Add(seqSeedPayload(f, kind))
	}
	for _, payload := range oversizedStates {
		f.Add([]byte(payload))
	}
	// Whole tables at rank 300 but no cell values: building the STGN cell
	// (≈ 14 MB) for this 3 KB file is what the allocation bound refuses.
	zeros := func(n int) string { return "[0" + strings.Repeat(",0", n-1) + "]" }
	f.Add(fmt.Appendf(nil, `{"kind":"STGN","rank":300,"users":1,"pois":4,"times":1,"params":{"poi.W":%s,"time.W":%s}}`,
		zeros(4*300), zeros(300)))
	dist := fuzzDist()
	dir := f.TempDir()
	in, out1, out2 := filepath.Join(dir, "in"), filepath.Join(dir, "out1"), filepath.Join(dir, "out2")
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, payload []byte) {
		size := writeSeqState(t, in, payload)
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		m, gen, err := LoadSeqState(in, dist)
		metrics.Read(allocated)
		if grew, limit := allocated[0].Value.Uint64()-before, uint64(128*size+1<<20); grew > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", size, grew, limit)
		}
		if err != nil {
			return
		}
		if err := SaveSeqState(nil, out1, 0, gen, m); err != nil {
			t.Fatalf("accepted state does not save: %v", err)
		}
		m2, gen2, err := LoadSeqState(out1, dist)
		if err != nil || gen2 != gen || m2.Name() != m.Name() {
			t.Fatalf("re-saved state: err=%v generation %d→%d kind %s→%s", err, gen, gen2, m.Name(), m2.Name())
		}
		if err := SaveSeqState(nil, out2, 0, gen2, m2); err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(out1)
		b, errB := os.ReadFile(out2)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("load→save is not a fixed point (%v, %v)", errA, errB)
		}
	})
}
