package core

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"tcss/internal/fault"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomModel(5, 6, 3, 4, rng)
	m.ZeroOutFilter = make([][]bool, 5)
	for i := range m.ZeroOutFilter {
		m.ZeroOutFilter[i] = make([]bool, 6)
		m.ZeroOutFilter[i][i%6] = true
	}
	var buf bytes.Buffer
	if err := m.encode(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	back, _, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Rank != m.Rank || back.I != m.I || back.J != m.J || back.K != m.K {
		t.Fatal("shape lost in round trip")
	}
	for i := 0; i < m.I; i++ {
		for j := 0; j < m.J; j++ {
			for k := 0; k < m.K; k++ {
				if back.Predict(i, j, k) != m.Predict(i, j, k) {
					t.Fatal("predictions differ after round trip")
				}
				if back.Score(i, j, k) != m.Score(i, j, k) {
					t.Fatal("zero-out filter lost in round trip")
				}
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomModel(3, 3, 2, 2, rng)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.SaveFileVersioned(path, 0); err != nil {
		t.Fatal(err)
	}
	back, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Predict(1, 2, 1) != m.Predict(1, 2, 1) {
		t.Fatal("file round trip mismatch")
	}
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// sealed wraps a JSON document in a valid integrity frame of the given
// version, so a test document reaches the decoder behind the frame gate.
func sealed(t *testing.T, version int, doc string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fault.WriteFramed(&buf, version, []byte(doc)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsUnsealedDocuments is the inverse of the legacy policy this
// build dropped: a model document without an integrity frame — what v0-v3
// files were — is refused as a header error, the same class as garbage,
// instead of being decoded unverified.
func TestLoadRejectsUnsealedDocuments(t *testing.T) {
	for name, payload := range map[string]string{
		"v0 legacy":   `{"rank":1,"i":1,"j":2,"k":1,"u1":[1],"u2":[0.5,2],"u3":[1],"h":[1]}`,
		"v1 explicit": `{"version":1,"rank":1,"i":1,"j":2,"k":1,"u1":[1],"u2":[0.5,2],"u3":[1],"h":[1]}`,
		"v4 unsealed": `{"version":4,"rank":1,"i":1,"j":2,"k":1,"u1":[1],"u2":[0.5,2],"u3":[1],"h":[1]}`,
		"garbage":     "not json",
	} {
		m, _, err := Decode([]byte(payload))
		if err == nil || m != nil {
			t.Fatalf("%s: Decode accepted an unsealed document", name)
		}
		if errors.Is(err, ErrChecksum) || errors.Is(err, ErrFormatVersion) {
			t.Fatalf("%s: err = %v, want a header error, neither sentinel", name, err)
		}
	}
	// The same document, sealed, is a model: the frame is what was missing.
	m, info, err := Decode(sealed(t, JSONVersion, `{"version":4,"rank":1,"i":1,"j":2,"k":1,"u1":[1],"u2":[0.5,2],"u3":[1],"h":[1]}`))
	if err != nil || info.Generation != 0 || m.Predict(0, 1, 0) != 2 {
		t.Fatalf("sealed document: err=%v info=%+v", err, info)
	}
}

func TestLoadRejectsFutureFormatVersion(t *testing.T) {
	payload := `{"version":99,"rank":1,"i":1,"j":1,"k":1,"u1":[0],"u2":[0],"u3":[0],"h":[0]}`
	_, _, err := Decode(sealed(t, 99, payload))
	if !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("future version error = %v, want ErrFormatVersion", err)
	}
	if !strings.Contains(err.Error(), "v99") {
		t.Fatalf("error %q does not name the offending version", err)
	}
	if _, _, err := Decode(sealed(t, -1, `{"version":-1,"rank":1,"i":1,"j":1,"k":1,"u1":[0],"u2":[0],"u3":[0],"h":[0]}`)); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("negative version error = %v, want ErrFormatVersion", err)
	}
}

func TestSaveVersionedGenerationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomModel(3, 4, 2, 2, rng)
	var buf bytes.Buffer
	if err := m.encode(&buf, 41, nil); err != nil {
		t.Fatal(err)
	}
	back, info, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gen := info.Generation; gen != 41 {
		t.Fatalf("generation = %d, want 41", gen)
	}
	if back.Predict(2, 3, 1) != m.Predict(2, 3, 1) {
		t.Fatal("versioned round trip mismatch")
	}

	path := filepath.Join(t.TempDir(), "snap.json")
	if err := m.SaveFileVersioned(path, 7); err != nil {
		t.Fatal(err)
	}
	_, gen, err := LoadFileVersioned(path)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 {
		t.Fatalf("file generation = %d, want 7", gen)
	}
	// Offline saves record generation 0.
	if err := m.SaveFileVersioned(path, 0); err != nil {
		t.Fatal(err)
	}
	_, gen, err = LoadFileVersioned(path)
	if err != nil || gen != 0 {
		t.Fatalf("offline save generation = %d (%v), want 0", gen, err)
	}
}

func TestLoadRejectsCorruptModels(t *testing.T) {
	cases := map[string][]byte{
		"garbage":         []byte("not json"),
		"bad version":     sealed(t, 99, `{"version":99,"rank":1,"i":1,"j":1,"k":1,"u1":[0],"u2":[0],"u3":[0],"h":[0]}`),
		"bad shape":       sealed(t, 4, `{"version":4,"rank":0,"i":1,"j":1,"k":1,"u1":[],"u2":[],"u3":[],"h":[]}`),
		"length mismatch": sealed(t, 4, `{"version":4,"rank":2,"i":2,"j":1,"k":1,"u1":[0],"u2":[0,0],"u3":[0,0],"h":[0,0]}`),
		"bad filter":      sealed(t, 4, `{"version":4,"rank":1,"i":2,"j":1,"k":1,"u1":[0,0],"u2":[0],"u3":[0],"h":[0],"zero_out":[[true]]}`),
		// i·rank wraps to 0 == len(u1) in 64-bit int arithmetic.
		"wrapped shape": sealed(t, 4, `{"version":4,"rank":4,"i":4611686018427387904,"j":1,"k":1,"u1":[],"u2":[0,0,0,0],"u3":[0,0,0,0],"h":[0,0,0,0]}`),
		// A valid document whose own version field disagrees with its frame.
		"inner version": sealed(t, 4, `{"version":3,"rank":1,"i":1,"j":1,"k":1,"u1":[0],"u2":[0],"u3":[0],"h":[0]}`),
	}
	for name, data := range cases {
		if _, _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode must reject", name)
		}
	}
	// The documents above are rejected for what they say, not for a typo in
	// the fixture: the corrected shape loads.
	if _, _, err := Decode(sealed(t, 4, `{"version":4,"rank":1,"i":2,"j":1,"k":1,"u1":[0,0],"u2":[0],"u3":[0],"h":[0],"zero_out":[[true],[false]]}`)); err != nil {
		t.Fatalf("well-formed sealed document rejected: %v", err)
	}
}
