package fault

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadFramed drives the header parser every persistence reader and every
// replica trusts with arbitrary bytes. It must never panic; whatever it
// accepts must be exactly what WriteFramed would have sealed (so nothing
// unverified is ever handed on); and flipping any one byte of an accepted
// payload must be caught as ErrChecksum.
func FuzzReadFramed(f *testing.F) {
	var plain, fixed bytes.Buffer
	if err := WriteFramed(&plain, 4, []byte(`{"rank":1}`+"\n")); err != nil {
		f.Fatal(err)
	}
	if err := WriteFramedFixed(&fixed, 5, bytes.Repeat([]byte{0xA5}, 200)); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		plain.Bytes(), fixed.Bytes(), plain.Bytes()[:plain.Len()-3],
		[]byte(`{"version":2,"rank":1}`), []byte(`{"version":1,"crc32":0,"length":0}`),
		[]byte(`{"version":1,"crc32":0,"length":-1}`), []byte("not json"), nil,
	} {
		f.Add(seed, uint(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, flip uint) {
		version, payload, err := ReadFramed(data)
		if err != nil {
			if payload != nil {
				t.Fatalf("rejected input still returned %d payload bytes", len(payload))
			}
			return
		}
		var resealed bytes.Buffer
		if err := WriteFramed(&resealed, version, payload); err != nil {
			t.Fatal(err)
		}
		if v, p, err := ReadFramed(resealed.Bytes()); err != nil || v != version || !bytes.Equal(p, payload) {
			t.Fatalf("accepted frame does not survive reseal: v%d→v%d err=%v", version, v, err)
		}
		if len(payload) == 0 {
			return
		}
		// The payload is the tail of data; damage one byte of it in place.
		mut := bytes.Clone(data)
		mut[len(data)-len(payload)+int(flip%uint(len(payload)))] ^= 1 << (flip % 8)
		if _, _, err := ReadFramed(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flipped payload byte: err = %v, want ErrChecksum", err)
		}
	})
}
