package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"unsafe"

	"tcss/internal/fault"
	"tcss/internal/mat"
)

// This file implements the BinaryVersion snapshot format: flat
// little-endian factor slabs at 64-byte-aligned offsets inside the standard
// CRC32-C integrity frame, designed to be loaded by mmap with zero copying.
//
// File layout:
//
//	[0,128)            fixed-width frame header (fault.WriteFramedFixed):
//	                   {"version":5,"crc32":C,"length":L,"pad":"…"}\n
//	[128,128+L)        payload, CRC32-C sealed:
//	    [0,8)          magic "TCSS5SLB"
//	    [8,12)         uint32 LE meta length M
//	    [12,12+M)      meta JSON (binMeta: shape, mode, generation, h,
//	                   slab directory)
//	    …              zero padding to the first 64-byte boundary
//	    slabs          raw little-endian factor slabs, each starting at a
//	                   payload offset ≡ 0 (mod 64)
//
// Because the frame header is exactly 128 bytes (itself a multiple of 64) and
// an mmap base address is page-aligned, a payload-relative slab offset that is
// 64-byte aligned is also 64-byte aligned in memory — so on little-endian
// hosts the loader can reinterpret the mapped bytes as []float64/[]float32/
// []int8 slabs directly (O(1) restart, factors paged in on first touch). On
// big-endian hosts, or when the bytes sit at a misaligned address (a shipment
// embeds the file at an arbitrary offset), the loader copies and decodes
// instead; both paths produce identical values.

// slabAlign is the byte alignment of every slab inside the payload. One
// x86-64 cache line, and a multiple of every element size used.
const slabAlign = 64

// binMagic identifies a v5 binary payload.
const binMagic = "TCSS5SLB"

// hostLittleEndian reports whether this machine stores multi-byte values
// little-endian — the precondition for reinterpreting the on-disk slabs
// in place.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// binSlab is one directory entry of the slab region. Off is payload-relative
// and 64-byte aligned; Len counts elements (bits for the "zeroout" bitset).
type binSlab struct {
	Name string `json:"name"` // u1, u2, u3, s1, s2, s3, zeroout
	Elem string `json:"elem"` // f64, f32, i8, bits
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
}

// binMeta is the JSON metadata block of a v5 file.
type binMeta struct {
	Version    int       `json:"version"`
	Generation uint64    `json:"generation"`
	Rank       int       `json:"rank"`
	I          int       `json:"i"`
	J          int       `json:"j"`
	K          int       `json:"k"`
	Mode       string    `json:"mode"`
	H          []float64 `json:"h"`
	Slabs      []binSlab `json:"slabs"`
}

// elemSize is the byte width of one element of each elem kind; an unknown
// kind has width 0 ("bits" is sized by slabBytes).
var elemSize = map[string]int64{"f64": 8, "f32": 4, "i8": 1}

// slabBytes returns the byte length of a slab the writer laid out, or one
// the decoder has already passed through fits.
func slabBytes(s binSlab) int64 {
	if s.Elem == "bits" {
		return (s.Len + 7) / 8
	}
	return s.Len * elemSize[s.Elem]
}

// fits reports whether a directory entry read from a file describes a region
// inside a payload of n bytes. It divides instead of multiplying: Len is
// outside input, and a Len chosen so that Len·size wraps to a small number
// must not pass.
func (s binSlab) fits(n int64) bool {
	if s.Off < 0 || s.Off > n || s.Len < 0 {
		return false
	}
	room := n - s.Off
	if s.Elem == "bits" {
		return s.Len/8 < room || (s.Len/8 == room && s.Len%8 == 0)
	}
	size := elemSize[s.Elem]
	return size > 0 && s.Len <= room/size
}

func alignUp(n int64) int64 { return (n + slabAlign - 1) &^ (slabAlign - 1) }

// The directory names of the per-axis factor slabs and, in int8 mode, their
// per-row scale slabs.
var (
	factorSlabNames = [3]string{"u1", "u2", "u3"}
	scaleSlabNames  = [3]string{"s1", "s2", "s3"}
)

// factorElem names each storage mode's factor element kind in the directory.
var factorElem = [...]string{StorageFloat64: "f64", StorageFloat32: "f32", StorageInt8: "i8"}

// put writes the elements of a slab with one element slice populated
// little-endian into dst.
func (s slab) put(dst []byte) {
	for i, v := range s.f64 {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
	for i, v := range s.f32 {
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(v))
	}
	for i, v := range s.i8 {
		dst[i] = byte(v)
	}
}

// binPlan lays out the payload: metadata first, then each slab at the next
// aligned offset — the three factor slabs, then the three scale slabs of an
// int8 model, then the zero-out bitset. data[n] is what meta.Slabs[n]
// describes; the bitset, when present, is the entry after the last.
func (m *Model) binPlan(generation uint64) (meta binMeta, data []slab, err error) {
	meta = binMeta{
		Version: BinaryVersion, Generation: generation,
		Rank: m.Rank, I: m.I, J: m.J, K: m.K,
		Mode: m.Mode.String(), H: m.H,
	}
	if !m.Mode.valid() {
		return meta, nil, fmt.Errorf("core: cannot serialize storage mode %d", int(m.Mode))
	}
	add := func(name, elem string, n int64, s slab) {
		meta.Slabs = append(meta.Slabs, binSlab{Name: name, Elem: elem, Len: n})
		data = append(data, s)
	}
	slabs, dims := m.slabs(), [3]int64{int64(m.I), int64(m.J), int64(m.K)}
	for ax, s := range slabs {
		add(factorSlabNames[ax], factorElem[m.Mode], dims[ax]*int64(m.Rank), slab{f64: s.f64, f32: s.f32, i8: s.i8})
	}
	for ax, s := range slabs {
		if s.scale != nil {
			add(scaleSlabNames[ax], "f64", dims[ax], slab{f64: s.scale})
		}
	}
	if m.ZeroOutFilter != nil {
		meta.Slabs = append(meta.Slabs, binSlab{Name: "zeroout", Elem: "bits", Len: dims[axUser] * dims[axPOI]})
	}

	// Lay out offsets. The meta JSON length depends on the slab directory,
	// whose offsets depend on the meta length — break the cycle by sizing the
	// directory with placeholder offsets first (offsets are encoded as JSON
	// numbers, so reserve their worst-case width by probing with the final
	// values in a second pass).
	for pass := 0; pass < 2; pass++ {
		mb, err := json.Marshal(meta)
		if err != nil {
			return meta, nil, fmt.Errorf("core: encoding binary meta: %w", err)
		}
		off := alignUp(int64(len(binMagic)) + 4 + int64(len(mb)))
		for i := range meta.Slabs {
			meta.Slabs[i].Off = off
			off = alignUp(off + slabBytes(meta.Slabs[i]))
		}
	}
	return meta, data, nil
}

// packBits flattens a [][]bool row-major into an LSB-first bitset.
func packBits(rows [][]bool, cols int) []byte {
	n := len(rows) * cols
	out := make([]byte, (n+7)/8)
	for i, row := range rows {
		for j, v := range row {
			if v {
				bit := i*cols + j
				out[bit>>3] |= 1 << (bit & 7)
			}
		}
	}
	return out
}

// unpackBits is the inverse of packBits.
func unpackBits(bits []byte, rows, cols int) [][]bool {
	out := make([][]bool, rows)
	flat := make([]bool, rows*cols)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols]
		for j := 0; j < cols; j++ {
			bit := i*cols + j
			if bits[bit>>3]&(1<<(bit&7)) != 0 {
				out[i][j] = true
			}
		}
	}
	return out
}

// SaveBinary writes the model to w as a BinaryVersion file, preserving its
// storage mode (unlike the JSON format, which always stores float64 values).
func (m *Model) SaveBinary(w io.Writer, generation uint64) error {
	meta, data, err := m.binPlan(generation)
	if err != nil {
		return err
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("core: encoding binary meta: %w", err)
	}
	last := meta.Slabs[len(meta.Slabs)-1]
	payload := make([]byte, last.Off+slabBytes(last))
	copy(payload, binMagic)
	binary.LittleEndian.PutUint32(payload[len(binMagic):], uint32(len(mb)))
	copy(payload[len(binMagic)+4:], mb)
	for n, s := range data {
		s.put(payload[meta.Slabs[n].Off:])
	}
	if m.ZeroOutFilter != nil {
		copy(payload[last.Off:], packBits(m.ZeroOutFilter, m.J))
	}
	if err := fault.WriteFramedFixed(w, BinaryVersion, payload); err != nil {
		return fmt.Errorf("core: writing binary model: %w", err)
	}
	return nil
}

// SaveFileBinary writes a BinaryVersion model file crash-safely (temp file,
// fsync, atomic rename).
func (m *Model) SaveFileBinary(path string, generation uint64) error {
	return m.SaveBinaryRotate(nil, path, 0, generation)
}

// SaveBinaryRotate writes a BinaryVersion model file crash-safely through fs
// (nil: the real filesystem), keeping up to keep rotated prior snapshots as a
// recovery ladder — the binary counterpart of SaveCheckpointRotate.
func (m *Model) SaveBinaryRotate(fs fault.FS, path string, keep int, generation uint64) error {
	return fault.WriteFileRotate(fs, path, keep, func(w io.Writer) error {
		return m.SaveBinary(w, generation)
	})
}

// decodeBinary reconstructs a model from a verified BinaryVersion payload.
// The CRC is integrity, not authentication — a shipment or a -model file is
// outside input — so nothing the metadata declares is used as an index or a
// size before it has been checked against the payload. Where the host is
// little-endian and a slab lands on a suitably aligned address, the model's
// slices alias payload directly (zero copy); otherwise the slab is decoded
// into fresh heap memory. Callers that pass an mmap-backed payload get a
// read-only model and must keep the mapping open for the model's lifetime.
func decodeBinary(payload []byte) (*Model, uint64, error) {
	if len(payload) < len(binMagic)+4 || string(payload[:len(binMagic)]) != binMagic {
		return nil, 0, fmt.Errorf("core: not a binary model payload")
	}
	metaLen := int64(binary.LittleEndian.Uint32(payload[len(binMagic):]))
	metaOff := int64(len(binMagic) + 4)
	if metaOff+metaLen > int64(len(payload)) {
		return nil, 0, fmt.Errorf("core: binary meta region [%d,%d) exceeds payload (%d bytes)",
			metaOff, metaOff+metaLen, len(payload))
	}
	var meta binMeta
	if err := json.Unmarshal(payload[metaOff:metaOff+metaLen], &meta); err != nil {
		return nil, 0, fmt.Errorf("core: decoding binary meta: %w", err)
	}
	if meta.Version != BinaryVersion {
		return nil, 0, fmt.Errorf("%w: v%d frame holds binary meta declaring v%d", ErrFormatVersion, BinaryVersion, meta.Version)
	}
	mode, err := ParseStorageMode(meta.Mode)
	if err != nil {
		return nil, 0, err
	}

	slabs := map[string]binSlab{}
	for _, s := range meta.Slabs {
		if s.Off%slabAlign != 0 {
			return nil, 0, fmt.Errorf("core: slab %q offset %d not %d-byte aligned", s.Name, s.Off, slabAlign)
		}
		if !s.fits(int64(len(payload))) {
			return nil, 0, fmt.Errorf("core: slab %q (%s×%d at offset %d) exceeds payload (%d bytes): file truncated?",
				s.Name, s.Elem, s.Len, s.Off, len(payload))
		}
		slabs[s.Name] = s
	}
	need := func(name, elem string) (binSlab, error) {
		s := slabs[name] // a missing slab has the zero Elem
		if s.Elem != elem {
			return s, fmt.Errorf("core: binary model (mode %s) has no %s slab %q", meta.Mode, elem, name)
		}
		return s, nil
	}

	dims := [3]int{meta.I, meta.J, meta.K}
	var dir [3]binSlab
	for ax, name := range factorSlabNames {
		if dir[ax], err = need(name, factorElem[mode]); err != nil {
			return nil, 0, err
		}
	}
	if err := checkShape(dims, meta.Rank, len(meta.H), dir[0].Len, dir[1].Len, dir[2].Len); err != nil {
		return nil, 0, err
	}

	m := &Model{Rank: meta.Rank, I: meta.I, J: meta.J, K: meta.K, Mode: mode, H: meta.H}
	var c compactFactors
	for ax, s := range dir {
		b := payload[s.Off:]
		switch mode {
		case StorageFloat64:
			c[ax].f64 = viewSlab[float64](b, s.Len)
		case StorageFloat32:
			c[ax].f32 = viewSlab[float32](b, s.Len)
		case StorageInt8:
			sc, err := need(scaleSlabNames[ax], "f64")
			if err != nil {
				return nil, 0, err
			}
			if sc.Len != int64(dims[ax]) {
				return nil, 0, fmt.Errorf("core: slab %q has %d scales, want one per row (%d)", sc.Name, sc.Len, dims[ax])
			}
			c[ax].i8 = viewSlab[int8](b, s.Len)
			c[ax].scale = viewSlab[float64](payload[sc.Off:], sc.Len)
		}
	}
	if mode == StorageFloat64 {
		m.U1 = mat.FromSlice(meta.I, meta.Rank, c[axUser].f64)
		m.U2 = mat.FromSlice(meta.J, meta.Rank, c[axPOI].f64)
		m.U3 = mat.FromSlice(meta.K, meta.Rank, c[axTime].f64)
	} else {
		m.Compact = &c
	}
	if s, ok := slabs["zeroout"]; ok {
		if want := int64(meta.I) * int64(meta.J); s.Elem != "bits" || s.Len != want {
			return nil, 0, fmt.Errorf("core: slab \"zeroout\" is %s×%d, want bits×%d", s.Elem, s.Len, want)
		}
		m.ZeroOutFilter = unpackBits(payload[s.Off:s.Off+slabBytes(s)], meta.I, meta.J)
	}
	return m, meta.Generation, nil
}

// viewSlab returns the n > 0 little-endian elements at the start of b, which
// the caller has checked holds them. It is a zero-copy reinterpretation when the
// host is little-endian and b is aligned for E — always so for a page-aligned
// mapping of a file, whose slab offsets are multiples of slabAlign — and an
// element-wise decode onto the heap otherwise. Single-byte elements have
// neither constraint.
func viewSlab[E mat.Elem](b []byte, n int64) []E {
	var e E
	size := unsafe.Sizeof(e)
	if (hostLittleEndian || size == 1) && uintptr(unsafe.Pointer(&b[0]))%size == 0 {
		return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]E, n)
	switch out := any(out).(type) {
	case []float64:
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
	case []float32:
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
		}
	}
	return out
}

// DecodeBinary is Decode for readers that accept only the binary format —
// the wire side of snapshot shipping, where SaveBinary wrote the bytes and a
// JSON model is not an acceptable answer. The decoded model may alias data,
// so callers must not mutate the buffer while the model is in use.
func DecodeBinary(data []byte) (*Model, uint64, error) {
	m, info, err := decode(data, BinaryVersion)
	return m, info.Generation, err
}

// LoadFileMmap opens exactly one BinaryVersion file the way Open opens each
// rung of a ladder — memory-mapped, the factor slices aliasing the mapping,
// so the load is O(metadata) and rows are paged in on first touch — without
// falling back to older copies: a read-back check must judge the file it
// names. The returned File must stay open as long as the model (or any
// Clone-free reference to its slabs) is in use. The model is READ-ONLY:
// mutating it through training or UpdateOnline faults; Clone() first.
func LoadFileMmap(path string) (*Model, uint64, *File, error) {
	m, f, err := openRung(path, BinaryVersion)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: no binary snapshot loaded: %w", err)
	}
	return m, f.Generation, f, nil
}
