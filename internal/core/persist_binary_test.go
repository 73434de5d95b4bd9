package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tcss/internal/fault"
)

// binaryTestModel returns a model in the given mode with a zero-out filter,
// exercising every slab kind the format defines.
func binaryTestModel(t *testing.T, mode StorageMode) *Model {
	t.Helper()
	m := storageTestModel(t, 17, 23, 5, 10, 77)
	filter := make([][]bool, m.I)
	for i := range filter {
		filter[i] = make([]bool, m.J)
		for j := range filter[i] {
			filter[i][j] = (i+j)%3 != 0
		}
	}
	m.ZeroOutFilter = filter
	cm, err := m.ToStorage(mode)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// binModelsEqual compares two models' parameters exactly, mode included.
func binModelsEqual(t *testing.T, tag string, a, b *Model) {
	t.Helper()
	if a.Mode != b.Mode || a.Rank != b.Rank || a.I != b.I || a.J != b.J || a.K != b.K {
		t.Fatalf("%s: shape/mode mismatch: %v %dx%dx%d r%d vs %v %dx%dx%d r%d",
			tag, a.Mode, a.I, a.J, a.K, a.Rank, b.Mode, b.I, b.J, b.K, b.Rank)
	}
	eq64 := func(name string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s lengths %d vs %d", tag, name, len(x), len(y))
		}
		for n := range x {
			if x[n] != y[n] {
				t.Fatalf("%s: %s[%d] = %g vs %g", tag, name, n, x[n], y[n])
			}
		}
	}
	eq64("h", a.H, b.H)
	as, bs := a.slabs(), b.slabs()
	for ax := range as {
		name := factorSlabNames[ax]
		eq64(name+" f64", as[ax].f64, bs[ax].f64)
		eq64(name+" scales", as[ax].scale, bs[ax].scale)
		if !slices.Equal(as[ax].f32, bs[ax].f32) {
			t.Fatalf("%s: %s f32 slabs differ", tag, name)
		}
		if !slices.Equal(as[ax].i8, bs[ax].i8) {
			t.Fatalf("%s: %s quantized slabs differ", tag, name)
		}
	}
	if (a.ZeroOutFilter == nil) != (b.ZeroOutFilter == nil) {
		t.Fatalf("%s: zero-out presence differs", tag)
	}
	for i := range a.ZeroOutFilter {
		for j := range a.ZeroOutFilter[i] {
			if a.ZeroOutFilter[i][j] != b.ZeroOutFilter[i][j] {
				t.Fatalf("%s: zero-out[%d][%d] differs", tag, i, j)
			}
		}
	}
}

// TestBinaryRoundTripAllModes: SaveBinary → mmap load AND stream load must
// both reproduce the model exactly, mode preserved, generation carried.
func TestBinaryRoundTripAllModes(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
		m := binaryTestModel(t, mode)
		path := filepath.Join(dir, "model-"+mode.String()+".bin")
		if err := m.SaveFileBinary(path, 42); err != nil {
			t.Fatalf("%v: save: %v", mode, err)
		}

		mm, gen, mapping, err := LoadFileMmap(path)
		if err != nil {
			t.Fatalf("%v: mmap load: %v", mode, err)
		}
		if gen != 42 {
			t.Fatalf("%v: mmap generation %d, want 42", mode, gen)
		}
		binModelsEqual(t, mode.String()+"/mmap", m, mm)

		sm, sgen, err := LoadFileVersioned(path)
		if err != nil {
			t.Fatalf("%v: stream load: %v", mode, err)
		}
		if sgen != 42 {
			t.Fatalf("%v: stream generation %d, want 42", mode, sgen)
		}
		binModelsEqual(t, mode.String()+"/stream", m, sm)

		// mmap ≡ stream parity.
		binModelsEqual(t, mode.String()+"/parity", mm, sm)

		// The mapped model must survive Clone past Close (slabs copied out).
		cl := mm.Clone()
		if err := mapping.Close(); err != nil {
			t.Fatalf("%v: close: %v", mode, err)
		}
		binModelsEqual(t, mode.String()+"/clone", sm, cl)
	}
}

// TestBinaryAlignment verifies the layout invariant the zero-copy cast rests
// on: every slab offset is 64-byte aligned in the payload, hence (with the
// 128-byte fixed header) also in the file and in any page-aligned mapping.
func TestBinaryAlignment(t *testing.T) {
	m := binaryTestModel(t, StorageInt8)
	var buf bytes.Buffer
	if err := m.SaveBinary(&buf, 0); err != nil {
		t.Fatal(err)
	}
	sealed := buf.Bytes()
	if fault.FixedHeaderSize%slabAlign != 0 {
		t.Fatalf("fixed header size %d is not a multiple of slab alignment %d", fault.FixedHeaderSize, slabAlign)
	}
	_, payload, err := fault.ReadFramed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	meta := readBinMeta(t, payload)
	if len(meta.Slabs) != 7 { // u1,u2,u3,s1,s2,s3,zeroout
		t.Fatalf("int8 file has %d slabs, want 7", len(meta.Slabs))
	}
	for _, s := range meta.Slabs {
		if s.Off%slabAlign != 0 {
			t.Fatalf("slab %q offset %d not aligned", s.Name, s.Off)
		}
		if s.Off+slabBytes(s) > int64(len(payload)) {
			t.Fatalf("slab %q overruns payload", s.Name)
		}
	}
}

func readBinMeta(t *testing.T, payload []byte) binMeta {
	t.Helper()
	metaLen := binary.LittleEndian.Uint32(payload[len(binMagic):])
	var meta binMeta
	if err := json.Unmarshal(payload[len(binMagic)+4:len(binMagic)+4+int(metaLen)], &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// corruptBinary rewrites a valid binary file with a tampered payload,
// resealing the frame so the corruption reaches decodeBinary instead of being
// caught by the CRC.
func corruptBinary(t *testing.T, src string, mutate func(meta *binMeta, payload []byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := fault.ReadFramed(data)
	if err != nil {
		t.Fatal(err)
	}
	meta := readBinMeta(t, payload)
	payload = append([]byte(nil), payload...)
	payload = mutate(&meta, payload)
	// Re-embed the (possibly modified) meta at the same length by padding the
	// directory is fragile; instead rebuild the prefix: magic + len + meta,
	// then append the original slab region verbatim.
	mb, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	out = append(out, binMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(mb)))
	out = append(out, mb...)
	if pad := alignUp(int64(len(out))) - int64(len(out)); pad > 0 {
		out = append(out, make([]byte, pad)...)
	}
	// Copy everything from the first slab onward at its original offsets.
	if len(meta.Slabs) > 0 {
		first := meta.Slabs[0].Off
		for _, s := range meta.Slabs {
			if s.Off < first {
				first = s.Off
			}
		}
		if int64(len(out)) < first {
			out = append(out, make([]byte, first-int64(len(out)))...)
		}
		if first <= int64(len(payload)) {
			out = append(out[:first], payload[first:]...)
		}
	}
	dst := filepath.Join(t.TempDir(), "corrupt.bin")
	f, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.WriteFramedFixed(f, BinaryVersion, out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestBinaryEdgeCases drives the mmap loader through the failure table:
// truncated slab region, misaligned slab offset, checksum mismatch, JSON file,
// future version — each must fail loudly with a diagnosable error.
func TestBinaryEdgeCases(t *testing.T) {
	dir := t.TempDir()
	m := binaryTestModel(t, StorageFloat32)
	good := filepath.Join(dir, "good.bin")
	if err := m.SaveFileBinary(good, 7); err != nil {
		t.Fatal(err)
	}

	t.Run("truncated-slab-region", func(t *testing.T) {
		// Meta declares u3 beyond the payload end: decodeBinary's bounds
		// check must reject it (the CRC is valid — this models a buggy or
		// hostile writer, not a torn write).
		bad := corruptBinary(t, good, func(meta *binMeta, payload []byte) []byte {
			for i := range meta.Slabs {
				if meta.Slabs[i].Name == "u3" {
					meta.Slabs[i].Off = alignUp(int64(len(payload)))
				}
			}
			return payload
		})
		_, _, _, err := LoadFileMmap(bad)
		if err == nil || !strings.Contains(err.Error(), "exceeds payload") {
			t.Fatalf("err = %v, want slab-exceeds-payload", err)
		}
	})

	t.Run("misaligned-offset", func(t *testing.T) {
		bad := corruptBinary(t, good, func(meta *binMeta, payload []byte) []byte {
			meta.Slabs[0].Off += 3
			return payload
		})
		_, _, _, err := LoadFileMmap(bad)
		if err == nil || !strings.Contains(err.Error(), "aligned") {
			t.Fatalf("err = %v, want misalignment error", err)
		}
	})

	t.Run("torn-write-checksum", func(t *testing.T) {
		// Every truncation of the file itself is caught by the frame CRC
		// before any slab logic runs — the fault package's torn-file
		// contract extends to v5 files unchanged.
		data, err := os.ReadFile(good)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.25, 0.5, 0.9, 0.999} {
			torn := filepath.Join(t.TempDir(), "torn.bin")
			if err := os.WriteFile(torn, data[:int(float64(len(data))*frac)], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := LoadFileMmap(torn); !errors.Is(err, ErrChecksum) {
				t.Fatalf("truncation at %.0f%%: err = %v, want ErrChecksum", frac*100, err)
			}
		}
		// Bit flip inside a slab.
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-20] ^= 0x40
		flip := filepath.Join(t.TempDir(), "flip.bin")
		if err := os.WriteFile(flip, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := LoadFileMmap(flip); !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit flip: err = %v, want ErrChecksum", err)
		}
	})

	t.Run("json-file-rejected", func(t *testing.T) {
		jsonPath := filepath.Join(dir, "model.json")
		if err := m.SaveFileVersioned(jsonPath, 0); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := LoadFileMmap(jsonPath)
		if err == nil || !strings.Contains(err.Error(), "binary") {
			t.Fatalf("err = %v, want not-a-binary-snapshot", err)
		}
	})

	t.Run("future-version-rejected", func(t *testing.T) {
		future := filepath.Join(t.TempDir(), "future.bin")
		f, err := os.Create(future)
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.WriteFramedFixed(f, BinaryVersion+1, []byte(binMagic+"xxxx")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, _, _, err := LoadFileMmap(future); !errors.Is(err, ErrFormatVersion) {
			t.Fatalf("err = %v, want ErrFormatVersion", err)
		}
	})
}

// aliases reports whether the slab's bytes lie inside the mapping.
func aliases(data []byte, s slab) bool {
	var p unsafe.Pointer
	switch {
	case s.f64 != nil:
		p = unsafe.Pointer(&s.f64[0])
	case s.f32 != nil:
		p = unsafe.Pointer(&s.f32[0])
	default:
		p = unsafe.Pointer(&s.i8[0])
	}
	lo := uintptr(unsafe.Pointer(&data[0]))
	return uintptr(p) >= lo && uintptr(p) < lo+uintptr(len(data))
}

// TestBinaryFallbackLadder: the one loader walks the rotation ladder and maps
// what it finds. With an intact newest file it loads that one; with the
// newest torn — a crash during a snapshot save — it lands on path.1 with
// path.1's generation, factors aliasing the mapping, which is what lets
// `tcss serve -model` restart from a torn newest snapshot without copying the
// model. One input per storage mode; JSON rungs on the same ladder load too,
// heap-decoded and reported as not mapped.
func TestBinaryFallbackLadder(t *testing.T) {
	for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "snap.bin")
			m := binaryTestModel(t, mode)

			// Two rotated saves: generation 1 lands at path.1, generation 2 at path.
			if err := m.SaveBinaryRotate(nil, path, 4, 1); err != nil {
				t.Fatal(err)
			}
			if err := m.SaveBinaryRotate(nil, path, 4, 2); err != nil {
				t.Fatal(err)
			}

			// Intact primary loads with its own generation.
			mm, f, err := Open(path)
			if err != nil || f.Generation != 2 || f.From != path || f.Version != BinaryVersion {
				t.Fatalf("intact: file=%+v err=%v", f, err)
			}
			binModelsEqual(t, "intact", m, mm)
			f.Close()

			// Tear the primary: fallback must land on path.1 at generation 1.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			mm, f, err = Open(path)
			if err != nil || f.Generation != 1 || f.From != path+".1" {
				t.Fatalf("torn primary: file=%+v err=%v", f, err)
			}
			binModelsEqual(t, "fallback", m, mm)
			if !f.Mapped {
				t.Fatalf("fallback rung not memory-mapped: %+v", f)
			}
			for ax, s := range mm.slabs() {
				if !aliases(f.mapping.Data, s) {
					t.Fatalf("factor slab %d was copied out of the mapping", ax)
				}
			}
			// The per-rung open judges the torn file itself and never falls back.
			if _, _, _, err := LoadFileMmap(path); !errors.Is(err, ErrChecksum) {
				t.Fatalf("per-rung open of the torn primary: err = %v, want ErrChecksum", err)
			}
			cl := mm.Clone()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			binModelsEqual(t, "clone outlives the mapping", m, cl)

			// A JSON rung on the same ladder: the decoder is picked from the
			// frame version, and Mapped reports what the model aliases — not
			// the mapping the bytes were read through.
			if err := m.SaveFileVersioned(path, 3); err != nil {
				t.Fatal(err)
			}
			jm, f, err := Open(path)
			if err != nil || f.Generation != 3 || f.From != path || f.Version != JSONVersion || f.Mapped {
				t.Fatalf("json rung: file=%+v err=%v", f, err)
			}
			binModelsEqual(t, "json rung", m.Decompress(), jm)
			f.Close()
		})
	}

	// Nothing loadable anywhere: error names the path, wraps os.ErrNotExist.
	absent := filepath.Join(t.TempDir(), "absent.bin")
	if _, _, err := Open(absent); !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), absent) {
		t.Fatalf("absent ladder: err = %v", err)
	}
}
