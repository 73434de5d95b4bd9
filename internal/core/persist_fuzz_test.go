package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"

	"tcss/internal/fault"
)

// FuzzDecodeBinary drives the binary decoder — which runs on every replica
// shipment and every `tcss serve -model` — with arbitrary payloads behind a
// valid CRC, since the checksum is integrity, not authentication. It must
// never panic, never allocate more than a small multiple of its input (a
// declared size is not a reason to allocate), and whatever it accepts must
// re-encode to a file that decodes to the same factors, mode and generation.
func FuzzDecodeBinary(f *testing.F) {
	seeds := [][]byte{overflowPayload(f)}
	for _, file := range []string{"model_v5_f64.bin", "model_v5_f32.bin", "model_v5_int8.bin"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, seed := range seeds {
		_, payload, err := fault.ReadFramed(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}

	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var framed bytes.Buffer
		if err := fault.WriteFramedFixed(&framed, BinaryVersion, payload); err != nil {
			t.Fatal(err)
		}
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		m, gen, err := DecodeBinary(framed.Bytes())
		metrics.Read(allocated)
		if grew, limit := allocated[0].Value.Uint64()-before, uint64(64*framed.Len()+1<<20); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", framed.Len(), grew, limit)
		}
		if err != nil {
			return
		}
		var enc1, enc2 bytes.Buffer
		if err := m.SaveBinary(&enc1, gen); err != nil {
			t.Fatalf("accepted model does not re-encode: %v", err)
		}
		m2, gen2, err := DecodeBinary(enc1.Bytes())
		if err != nil || gen2 != gen || m2.Mode != m.Mode {
			t.Fatalf("re-encoded model: err=%v generation %d→%d mode %v→%v", err, gen, gen2, m.Mode, m2.Mode)
		}
		// Byte equality of the two encodings compares every factor, scale and
		// filter bit exactly, NaN payloads included.
		if err := m2.SaveBinary(&enc2, gen2); err != nil || !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("decode→encode is not a fixed point (err=%v)", err)
		}
	})
}
