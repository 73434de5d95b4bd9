package mmapio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenReadParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	want := bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}, 10_000)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}

	mm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mm.Data, want) {
		t.Fatal("mapped bytes differ from file contents")
	}
	if err := mm.Close(); err != nil {
		t.Fatal(err)
	}
	if mm.Data != nil {
		t.Fatal("Close must clear Data")
	}
	// Double close and nil close are no-ops.
	if err := mm.Close(); err != nil {
		t.Fatal(err)
	}
	var nilMap *Mapping
	if err := nilMap.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenEmptyAndMissing(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 0 || m.Mapped {
		t.Fatalf("empty file: %d bytes, mapped %v", len(m.Data), m.Mapped)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file must error")
	}
}
