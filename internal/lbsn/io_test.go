package lbsn

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"testing"
)

// writeDirFiles writes the three CSV files of a dataset directory.
func writeDirFiles(t testing.TB, dir string, pois, checkins, edges []byte) int {
	t.Helper()
	for name, data := range map[string][]byte{poisFile: pois, checkinsFile: checkins, edgesFile: edges} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(pois) + len(checkins) + len(edges)
}

const (
	validPOIs     = "id,lat,lon,category,cluster,peak_month\n0,40.7,-74,1,0,3\n1,40.8,-73.9,2,0,5\n"
	validCheckIns = "user,poi,month,week,hour\n0,1,3,10,12\n1,0,4,15,20\n"
	validEdges    = "u,v\n0,1\n"
)

// TestReadDirRejectsMalformedFiles covers what encoding/csv does not check
// (it holds rows to the header's field count, whatever that is) and what a
// file can ask ReadDir to allocate: each row must be refused with an error,
// not a panic, and nothing may be sized by a user id the files do not back.
func TestReadDirRejectsMalformedFiles(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		pois, checkins, edges string
	}{
		{"short POI rows", "id\n5\n", validCheckIns, validEdges},
		{"short check-in rows", validPOIs, "user,poi,month,week\n0,1,3,10\n", validEdges},
		{"short edge rows", validPOIs, validCheckIns, "u\n0\n"},
		{"long edge rows", validPOIs, validCheckIns, "u,v,w\n0,1,2\n"},
		{"huge check-in user", validPOIs, "user,poi,month,week,hour\n4611686018427387904,1,3,10,12\n", validEdges},
		{"huge edge user", validPOIs, validCheckIns, "u,v\n0,4611686018427387904\n"},
		{"negative edge user", validPOIs, validCheckIns, "u,v\n-1,1\n"},
		{"self-loop", validPOIs, validCheckIns, "u,v\n1,1\n"},
		{"user beyond its mentions", validPOIs, validCheckIns, "u,v\n0,9\n"},
	} {
		dir := t.TempDir()
		writeDirFiles(t, dir, []byte(tc.pois), []byte(tc.checkins), []byte(tc.edges))
		if ds, err := ReadDir(dir, "x"); err == nil {
			t.Errorf("%s: accepted, %d users", tc.name, ds.NumUsers)
		}
	}
	dir := t.TempDir()
	writeDirFiles(t, dir, []byte(validPOIs), []byte(validCheckIns), []byte(validEdges+"1,0\n0,1\n"))
	ds, err := ReadDir(dir, "x")
	if err != nil || ds.NumUsers != 2 || ds.Social.EdgeCount() != 1 {
		t.Fatalf("repeated edges: err %v, dataset %+v", err, ds)
	}
}

// TestReadDirLoadsEveryPreset writes each preset with WriteDir and reads it
// back unchanged.
func TestReadDirLoadsEveryPreset(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := NewPreset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		ds := MustGenerate(cfg)
		dir := t.TempDir()
		if err := ds.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDir(dir, ds.Name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.NumUsers != ds.NumUsers || !reflect.DeepEqual(back.CheckIns, ds.CheckIns) ||
			!reflect.DeepEqual(back.Social, ds.Social) || len(back.POIs) != len(ds.POIs) {
			t.Fatalf("%s: dataset changed across WriteDir/ReadDir", name)
		}
	}
}

// FuzzReadDir feeds ReadDir — the loader behind `tcss -data` — arbitrary
// bytes as its three files. It must never panic, never allocate more than a
// multiple of its input (a user id is not a reason to allocate), and a
// dataset it accepts must write with WriteDir and read back equal.
func FuzzReadDir(f *testing.F) {
	f.Add([]byte(validPOIs), []byte(validCheckIns), []byte(validEdges))
	f.Add([]byte("id\n5\n"), []byte(validCheckIns), []byte(validEdges))
	f.Add([]byte(validPOIs), []byte("user,poi,month,week,hour\n4611686018427387904,1,3,10,12\n"), []byte(validEdges))
	f.Add([]byte(validPOIs), []byte(validCheckIns), []byte("u,v\n1,0\n0,1\n1,1\n"))
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, pois, checkins, edges []byte) {
		dir := t.TempDir()
		size := writeDirFiles(t, dir, pois, checkins, edges)
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		ds, err := ReadDir(dir, "fuzz")
		metrics.Read(allocated)
		if grew, limit := allocated[0].Value.Uint64()-before, uint64(128*size+1<<20); grew > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", size, grew, limit)
		}
		if err != nil {
			return
		}
		out := t.TempDir()
		if err := ds.WriteDir(out); err != nil {
			t.Fatalf("accepted dataset does not write: %v", err)
		}
		back, err := ReadDir(out, "fuzz")
		if err != nil {
			t.Fatalf("written dataset rejected: %v", err)
		}
		if !reflect.DeepEqual(back, ds) {
			t.Fatalf("dataset changed across WriteDir/ReadDir:\n%+v\nvs\n%+v", back, ds)
		}
	})
}
