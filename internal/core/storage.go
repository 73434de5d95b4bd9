package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"tcss/internal/mat"
)

// StorageMode selects how a Model stores its factor matrices. Training always
// runs in float64; the compact modes exist for serving, where the factor
// slabs dominate resident memory and memory bandwidth. All scoring entry
// points (Predict, Score, ScoreCandidates, ScoreSlab, TopNScratch, TopNBatch)
// work in every mode: compact values are widened to float64 inside the
// kernels, so the compute path — summation order included — matches the
// float64 kernels and the only deviation is the storage rounding of the
// factor entries themselves.
type StorageMode int

const (
	// StorageFloat64 is the native mode: factors are *mat.Matrix float64
	// slabs. Training, checkpointing and gradient math require it.
	StorageFloat64 StorageMode = iota
	// StorageFloat32 stores U1/U2/U3 as float32 slabs (half the bytes).
	// Scores drift from float64 by at most the float32 rounding of the
	// factor entries (~1e-7 relative per entry).
	StorageFloat32
	// StorageInt8 stores U1/U2/U3 as int8 slabs with one float64
	// dequantization scale per row (symmetric max-abs quantization to
	// [-127, 127]; about an 8x reduction of the factor bytes). Ranking
	// quality drift is bounded by the eval harness, not by construction.
	StorageInt8
)

// String names the mode the way the CLI flags spell it.
func (m StorageMode) String() string {
	switch m {
	case StorageFloat64:
		return "f64"
	case StorageFloat32:
		return "f32"
	case StorageInt8:
		return "int8"
	}
	return fmt.Sprintf("storage(%d)", int(m))
}

// ParseStorageMode parses the CLI spelling of a storage mode ("f64"/"float64",
// "f32"/"float32", "int8"/"i8").
func ParseStorageMode(s string) (StorageMode, error) {
	switch strings.ToLower(s) {
	case "f64", "float64", "":
		return StorageFloat64, nil
	case "f32", "float32":
		return StorageFloat32, nil
	case "int8", "i8":
		return StorageInt8, nil
	}
	return StorageFloat64, fmt.Errorf("core: unknown storage mode %q (want f64, f32 or int8)", s)
}

// valid reports whether m is one of the defined modes.
func (m StorageMode) valid() bool {
	return m == StorageFloat64 || m == StorageFloat32 || m == StorageInt8
}

// The factor axes, in the order every per-axis array uses.
const (
	axUser = iota
	axPOI
	axTime
)

// slab is one axis' factor rows (row-major, Rank columns) in one storage
// mode; which field is populated says which. A slab may alias a read-only
// memory mapping (see Open), so it must never be written through.
type slab struct {
	f64 []float64 // StorageFloat64: the Data of the axis' mat.Matrix
	f32 []float32 // StorageFloat32
	// StorageInt8: quantized entries and one dequantization scale per row
	// (value = scale[row]·q). A zero row has scale 0.
	i8    []int8
	scale []float64
}

// compactFactors holds the factor slabs of a non-float64 model by axis.
type compactFactors [3]slab

// slabs returns the model's factor slabs by axis in the mode it stores them;
// in float64 mode they view U1/U2/U3.
func (m *Model) slabs() [3]slab {
	if m.Mode == StorageFloat64 {
		return [3]slab{{f64: m.U1.Data}, {f64: m.U2.Data}, {f64: m.U3.Data}}
	}
	return *m.Compact
}

// clone deep-copies the slab onto the heap (the source may alias a read-only
// mmap region).
func (s slab) clone() slab {
	return slab{
		f64: slices.Clone(s.f64), f32: slices.Clone(s.f32),
		i8: slices.Clone(s.i8), scale: slices.Clone(s.scale),
	}
}

// quantizeRows quantizes a row-major float64 slab to int8 with one symmetric
// max-abs scale per row: q = round(v * 127 / maxabs(row)), value' = s * q
// with s = maxabs(row) / 127.
func quantizeRows(data []float64, rows, cols int) (q []int8, scale []float64) {
	q = make([]int8, len(data))
	scale = make([]float64, rows)
	for i := 0; i < rows; i++ {
		row := data[i*cols : (i+1)*cols]
		var mx float64
		for _, v := range row {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
		if mx == 0 {
			continue // scale 0, all-zero quantized row
		}
		s := mx / 127
		scale[i] = s
		inv := 127 / mx
		for t, v := range row {
			q[i*cols+t] = int8(math.RoundToEven(v * inv))
		}
	}
	return q, scale
}

// ToStorage returns a model storing its factors in the given mode. Converting
// to the model's current mode returns the model itself (no copy). Converting
// between the two compact modes or back to float64 goes through Decompress,
// so int8 -> f32 carries the quantization loss of the int8 source. H and the
// zero-out filter are shared; they are negligible next to the factor slabs.
func (m *Model) ToStorage(mode StorageMode) (*Model, error) {
	if !mode.valid() {
		return nil, fmt.Errorf("core: unknown storage mode %d", int(mode))
	}
	if mode == m.Mode {
		return m, nil
	}
	if m.Mode != StorageFloat64 {
		return m.Decompress().ToStorage(mode)
	}
	out := &Model{
		Rank: m.Rank, I: m.I, J: m.J, K: m.K,
		Mode:          mode,
		H:             m.H,
		ZeroOutFilter: m.ZeroOutFilter,
		Compact:       &compactFactors{},
	}
	for ax, u := range []*mat.Matrix{m.U1, m.U2, m.U3} {
		switch s := &out.Compact[ax]; mode {
		case StorageFloat32:
			s.f32 = f32FromF64(u.Data)
		case StorageInt8:
			s.i8, s.scale = quantizeRows(u.Data, u.Rows, u.Cols)
		}
	}
	return out, nil
}

// Decompress returns a float64-mode model carrying exactly the values the
// compact scoring kernels compute with (float32 entries widened, int8 entries
// dequantized as scale*q). A float64 model decompresses to itself. The
// returned model is fully trainable; the online-update path decompresses,
// updates, and re-compacts.
func (m *Model) Decompress() *Model {
	if m.Mode == StorageFloat64 {
		return m
	}
	out := NewModel(m.I, m.J, m.K, m.Rank)
	copy(out.H, m.H)
	out.ZeroOutFilter = m.ZeroOutFilter
	for ax, u := range []*mat.Matrix{out.U1, out.U2, out.U3} {
		switch s := m.Compact[ax]; m.Mode {
		case StorageFloat32:
			f64FromF32(u.Data, s.f32)
		case StorageInt8:
			dequantRows(u.Data, s.i8, s.scale, m.Rank)
		}
	}
	return out
}

func f32FromF64(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

func f64FromF32(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

func dequantRows(dst []float64, q []int8, scale []float64, cols int) {
	for i, s := range scale {
		row := q[i*cols : (i+1)*cols]
		for t, v := range row {
			dst[i*cols+t] = s * float64(v)
		}
	}
}

// FactorBytes returns the resident size of the factor parameters in bytes:
// the three factor slabs, the per-row scales in int8 mode, and h. The
// zero-out filter (an optional ablation artifact) is not counted.
func (m *Model) FactorBytes() int64 {
	n := int64(len(m.H)) * 8
	for _, s := range m.slabs() {
		n += 8*int64(len(s.f64)) + 4*int64(len(s.f32)) + int64(len(s.i8)) + 8*int64(len(s.scale))
	}
	return n
}

// row returns row i of a factor axis as float64s: the row view itself in
// float64 mode (no copy), otherwise widened into buf, which must have
// length >= Rank.
func (m *Model) row(ax, i int, buf []float64) []float64 {
	r := m.Rank
	if m.Mode == StorageFloat64 {
		return m.slabs()[ax].f64[i*r : (i+1)*r]
	}
	s, buf := &m.Compact[ax], buf[:r]
	if m.Mode == StorageFloat32 {
		for t, v := range s.f32[i*r : (i+1)*r] {
			buf[t] = float64(v)
		}
		return buf
	}
	sc := s.scale[i]
	for t, v := range s.i8[i*r : (i+1)*r] {
		buf[t] = sc * float64(v)
	}
	return buf
}
