package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// ErrChecksum is the sentinel wrapped by ReadFramed (and, through it, the
// persistence loaders) when a sealed payload fails its integrity check —
// truncation, a length mismatch, or a CRC32 mismatch. Test with errors.Is.
// A file rejected with ErrChecksum is corrupt, not merely newer or older
// than the reader.
var ErrChecksum = errors.New("fault: payload failed integrity check")

// castagnoli is the CRC32-C polynomial, hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the one-line JSON envelope of a sealed file. The pointer
// fields tell a header apart from any other JSON value that happens to
// decode: a frame carries both "crc32" and "length" or it is not a frame.
type frameHeader struct {
	Version int     `json:"version"`
	CRC32   *uint32 `json:"crc32"`
	Length  *int64  `json:"length"`
}

// WriteFramed seals payload into w: a single-line JSON header
// {"version":V,"crc32":C,"length":L} followed by the payload bytes verbatim.
// The CRC32-C covers exactly the payload, so any torn, truncated, or
// bit-flipped byte is detected by ReadFramed.
func WriteFramed(w io.Writer, version int, payload []byte) error {
	crc := crc32.Checksum(payload, castagnoli)
	length := int64(len(payload))
	hdr, err := json.Marshal(frameHeader{Version: version, CRC32: &crc, Length: &length})
	if err != nil {
		return fmt.Errorf("fault: encoding frame header: %w", err)
	}
	hdr = append(hdr, '\n')
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// FixedHeaderSize is the exact byte length (newline included) of the header
// line written by WriteFramedFixed. A fixed-size header gives the payload a
// known file offset, which binary formats need so their internal slab offsets
// can be page/cache-line aligned for zero-copy mmap loading. 128 is a
// multiple of the 64-byte slab alignment and leaves ~60 bytes of headroom
// over the longest possible header JSON.
const FixedHeaderSize = 128

// WriteFramedFixed is WriteFramed with the header line padded to exactly
// FixedHeaderSize bytes. Padding lives in an extra "pad" JSON field inside
// the header object — not as trailing whitespace — because ReadFramed slices
// the payload immediately after the object plus one newline. ReadFramed
// decodes both framings identically (unknown JSON fields are ignored), so
// fixed frames need no reader-side changes.
func WriteFramedFixed(w io.Writer, version int, payload []byte) error {
	crc := crc32.Checksum(payload, castagnoli)
	length := int64(len(payload))
	bare, err := json.Marshal(frameHeader{Version: version, CRC32: &crc, Length: &length})
	if err != nil {
		return fmt.Errorf("fault: encoding frame header: %w", err)
	}
	// Rebuild with a pad field sized so the closing brace plus newline lands
	// exactly at FixedHeaderSize: {...,"pad":"xxx…"}\n. Relative to bare, the
	// rebuild adds `,"pad":"` + pad + `"` (the brace is dropped and re-added)
	// plus the trailing newline.
	padLen := FixedHeaderSize - len(bare) - len(`,"pad":""`) - 1
	if padLen < 0 {
		return fmt.Errorf("fault: frame header %d bytes overflows fixed size %d", len(bare), FixedHeaderSize)
	}
	hdr := make([]byte, 0, FixedHeaderSize)
	hdr = append(hdr, bare[:len(bare)-1]...) // drop closing '}'
	hdr = append(hdr, `,"pad":"`...)
	for i := 0; i < padLen; i++ {
		hdr = append(hdr, 'x')
	}
	hdr = append(hdr, '"', '}', '\n')
	if len(hdr) != FixedHeaderSize {
		return fmt.Errorf("fault: fixed frame header is %d bytes, want %d", len(hdr), FixedHeaderSize)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFramed splits data into its frame version and verified payload. Input
// that does not start with a frame header — garbage, an empty file, or a JSON
// document without both "crc32" and "length" — is a header error and is never
// handed on unverified. With a header, the payload is checked against the
// declared length and CRC32-C; a failure returns an error wrapping
// ErrChecksum alongside the header's version, so Unseal can still gate on the
// version first.
func ReadFramed(data []byte) (version int, payload []byte, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var h frameHeader
	if err := dec.Decode(&h); err != nil {
		return 0, nil, fmt.Errorf("fault: reading frame header: %w", err)
	}
	if h.CRC32 == nil || h.Length == nil {
		return 0, nil, errors.New("fault: reading frame header: no crc32/length, not a sealed frame")
	}
	rest := data[dec.InputOffset():]
	if len(rest) > 0 && rest[0] == '\n' {
		rest = rest[1:]
	}
	if int64(len(rest)) != *h.Length {
		return h.Version, nil, fmt.Errorf("%w: payload is %d bytes, header declares %d",
			ErrChecksum, len(rest), *h.Length)
	}
	if got := crc32.Checksum(rest, castagnoli); got != *h.CRC32 {
		return h.Version, nil, fmt.Errorf("%w: crc32 %08x, header declares %08x",
			ErrChecksum, got, *h.CRC32)
	}
	return h.Version, rest, nil
}

// Unseal is the frame gate every persistence reader goes through. It reports,
// in this order: a header error as it is (there is no version to trust);
// then, when the frame version is not one of accept — the versions the
// reader's own writer emits — an error wrapping the reader's unsupported
// sentinel, even if the payload is also damaged, because "written by another
// build or for another purpose" is the more useful diagnosis and the header
// survives payload corruption; and only then the checksum verdict.
func Unseal(data []byte, unsupported error, accept ...int) (version int, payload []byte, err error) {
	version, payload, err = ReadFramed(data)
	if err != nil && !errors.Is(err, ErrChecksum) {
		return 0, nil, err
	}
	if !slices.Contains(accept, version) {
		return version, nil, fmt.Errorf("%w: frame is v%d, this reader accepts v%d", unsupported, version, accept)
	}
	return version, payload, err
}
