package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tcss/internal/fault"
)

// TestFormatFixturesStable pins the on-disk formats: testdata holds one tiny
// file of each kind written by the commit before the legacy readers were
// removed. Each must load through the one loader with what it recorded, and
// saving the loaded model again must reproduce the file byte for byte — the
// layouts did not move, only what is accepted narrowed.
func TestFormatFixturesStable(t *testing.T) {
	for _, fx := range []struct {
		file    string
		version int
		gen     uint64
		mode    StorageMode
		epoch   int // completed epochs of a checkpoint, -1 for a plain model
	}{
		{"model_v4.json", JSONVersion, 3, StorageFloat64, -1},
		{"checkpoint_v4.json", JSONVersion, 0, StorageFloat64, 2},
		{"model_v5_f64.bin", BinaryVersion, 9, StorageFloat64, -1},
		{"model_v5_f32.bin", BinaryVersion, 9, StorageFloat32, -1},
		{"model_v5_int8.bin", BinaryVersion, 9, StorageInt8, -1},
	} {
		t.Run(fx.file, func(t *testing.T) {
			path := filepath.Join("testdata", fx.file)
			m, f, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Version != fx.version || f.Generation != fx.gen || f.From != path || m.Mode != fx.mode {
				t.Fatalf("loaded %+v in mode %v, want v%d generation %d mode %v", f, m.Mode, fx.version, fx.gen, fx.mode)
			}
			if m.I != 2 || m.J != 3 || m.K != 2 || m.Rank != 2 {
				t.Fatalf("shape %dx%dx%d rank %d, want 2x3x2 rank 2", m.I, m.J, m.K, m.Rank)
			}
			if (fx.epoch >= 0) != (f.Train != nil) || (f.Train != nil && f.Train.Epoch != fx.epoch) {
				t.Fatalf("training state %+v, want epoch %d", f.Train, fx.epoch)
			}

			again := filepath.Join(t.TempDir(), fx.file)
			switch {
			case fx.version == BinaryVersion:
				err = m.SaveFileBinary(again, f.Generation)
			case f.Train != nil:
				err = m.SaveCheckpointRotate(nil, again, 0, f.Train)
			default:
				err = m.SaveFileVersioned(again, f.Generation)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, _ := os.ReadFile(path)
			got, _ := os.ReadFile(again)
			if !bytes.Equal(got, want) {
				t.Fatalf("re-saved file differs from the fixture (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// overflowPayload is the crafted v5 payload that used to panic the decoder:
// every declared size is a multiple of 2^61, so each byte count (×8) and each
// dim·rank product the old checks computed wrapped to something that matched.
func overflowPayload(t testing.TB) []byte {
	const huge = 1 << 61
	meta, err := json.Marshal(binMeta{
		Version: BinaryVersion, Rank: 1, I: huge, J: huge, K: huge, Mode: "f64", H: []float64{1},
		Slabs: []binSlab{{"u1", "f64", 0, huge}, {"u2", "f64", 0, huge}, {"u3", "f64", 0, huge}},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(binMagic), 0, 0, 0, 0)
	payload[len(binMagic)] = byte(len(meta))
	payload[len(binMagic)+1] = byte(len(meta) >> 8)
	payload = append(payload, meta...)
	var buf bytes.Buffer
	if err := fault.WriteFramedFixed(&buf, BinaryVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeBinaryRejectsWrappedSizes: a CRC-valid payload is still outside
// input. Sizes chosen to wrap 64-bit products must be refused with an error,
// not indexed (the first case panicked the shipment and -model decoders).
func TestDecodeBinaryRejectsWrappedSizes(t *testing.T) {
	if _, _, err := DecodeBinary(overflowPayload(t)); err == nil {
		t.Fatal("payload declaring 2^61-row slabs in a few hundred bytes was accepted")
	}

	// The same attack on a real file: keep the data, inflate one declaration
	// at a time.
	good := filepath.Join(t.TempDir(), "good.bin")
	if err := binaryTestModel(t, StorageInt8).SaveFileBinary(good, 1); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(meta *binMeta){
		"slab len wraps byte count": func(meta *binMeta) { meta.Slabs[3].Len += 1 << 61 }, // s1: f64, ×8 wraps
		"zero-out len wraps":        func(meta *binMeta) { meta.Slabs[6].Len = -1 << 63 },
		"users wrap i·rank":         func(meta *binMeta) { meta.I += 1 << 62 },
		"i·j wraps to zero":         func(meta *binMeta) { meta.I, meta.J = 1<<32, 1<<32 },
		"rank wraps":                func(meta *binMeta) { meta.Rank += 1 << 62 },
		"unknown element kind":      func(meta *binMeta) { meta.Slabs[0].Elem = "f16" },
		"scale count off by one":    func(meta *binMeta) { meta.Slabs[4].Len-- },
	} {
		bad := corruptBinary(t, good, func(meta *binMeta, payload []byte) []byte {
			mutate(meta)
			return payload
		})
		if _, _, f, err := LoadFileMmap(bad); err == nil {
			f.Close()
			t.Errorf("%s: accepted", name)
		}
	}
}
