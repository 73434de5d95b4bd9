package core

import (
	"bytes"
	"path/filepath"
	"testing"
)

// grownTestModel builds a model with a zero-out filter and grows it with
// warm-start hints (including an id gap before the last user), the shape a
// serving node reaches after open-world observe batches.
func grownTestModel(t *testing.T) *Model {
	t.Helper()
	m := storageTestModel(t, 11, 13, 5, 6, 99)
	filter := make([][]bool, m.I)
	for i := range filter {
		filter[i] = make([]bool, m.J)
		for j := range filter[i] {
			filter[i][j] = (i+j)%4 != 0
		}
	}
	m.ZeroOutFilter = filter
	hints := &GrowthHints{
		Friends:  map[int][]int{11: {0, 3}, 12: {11, 5}},
		NearPOIs: map[int][]int{13: {2, 7, 9}},
		Seed:     17,
	}
	if err := m.Grow(14, 15, hints); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGrownModelJSONRoundTrip: a model grown past its trained dimensions
// must survive the JSON (v4) snapshot format bit-identically — grown rows,
// extended zero-out filter and generation included.
func TestGrownModelJSONRoundTrip(t *testing.T) {
	m := grownTestModel(t)

	var buf bytes.Buffer
	if err := m.SaveVersioned(&buf, 7); err != nil {
		t.Fatal(err)
	}
	got, info, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gen := info.Generation; gen != 7 {
		t.Fatalf("generation %d, want 7", gen)
	}
	binModelsEqual(t, "json", m, got)

	path := filepath.Join(t.TempDir(), "grown.json")
	if err := m.SaveFileVersioned(path, 9); err != nil {
		t.Fatal(err)
	}
	fm, fgen, err := LoadFileVersioned(path)
	if err != nil {
		t.Fatal(err)
	}
	if fgen != 9 {
		t.Fatalf("file generation %d, want 9", fgen)
	}
	binModelsEqual(t, "json/file", m, fm)

	// The reloaded model must stay growable: old rows keep their bits.
	before := append([]float64(nil), fm.U1.Data...)
	if err := fm.Grow(20, 15, nil); err != nil {
		t.Fatal(err)
	}
	for n, v := range before {
		if fm.U1.Data[n] != v {
			t.Fatalf("u1[%d] changed across post-load Grow", n)
		}
	}
}

// TestGrownModelBinaryRoundTrip: the v5 binary slab format must carry grown
// models through both the mmap and the stream loaders bit-identically, in
// every storage mode a grown float64 model can be compacted to.
func TestGrownModelBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := grownTestModel(t)
	for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
		m, err := base.ToStorage(mode)
		if err != nil {
			t.Fatalf("%v: compact: %v", mode, err)
		}
		path := filepath.Join(dir, "grown-"+mode.String()+".bin")
		if err := m.SaveFileBinary(path, 21); err != nil {
			t.Fatalf("%v: save: %v", mode, err)
		}

		mm, gen, mapping, err := LoadFileMmap(path)
		if err != nil {
			t.Fatalf("%v: mmap load: %v", mode, err)
		}
		if gen != 21 {
			t.Fatalf("%v: mmap generation %d, want 21", mode, gen)
		}
		binModelsEqual(t, mode.String()+"/mmap", m, mm)
		if err := mapping.Close(); err != nil {
			t.Fatalf("%v: close: %v", mode, err)
		}

		sm, sgen, err := LoadFileVersioned(path)
		if err != nil {
			t.Fatalf("%v: stream load: %v", mode, err)
		}
		if sgen != 21 {
			t.Fatalf("%v: stream generation %d, want 21", mode, sgen)
		}
		binModelsEqual(t, mode.String()+"/stream", m, sm)
	}
}
