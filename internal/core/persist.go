package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"tcss/internal/fault"
	"tcss/internal/mat"
	"tcss/internal/mmapio"
	"tcss/internal/train"
)

// A model file is a CRC32-C frame (internal/fault) whose version names its
// payload, and this build reads exactly the two versions it writes:
//
//	JSONVersion   — one JSON document (modelFile). encoding/json round-trips
//	                float64 exactly, so this is the checkpoint format: with
//	                "train" present the file resumes a run bit-identically,
//	                without it it is a plain model. Always float64 factors.
//	BinaryVersion — little-endian factor slabs at aligned offsets
//	                (persist_binary.go), storage mode preserved, loadable by
//	                mmap without copying. The serving snapshot format.
//
// Any other frame version — an engine checkpoint, a sequential-model state,
// a file from another build — is rejected with ErrFormatVersion; anything
// that is not a frame at all (garbage, an unsealed JSON document) is a header
// error; a damaged payload is ErrChecksum.
const (
	JSONVersion   = 4
	BinaryVersion = 5
)

// ErrFormatVersion is the sentinel wrapped when a file's frame version is not
// one this build writes. Test with errors.Is.
var ErrFormatVersion = errors.New("core: unsupported model format version")

// ErrChecksum is the sentinel wrapped when a file fails its integrity check —
// torn or corrupt, not merely a different format. It aliases
// fault.ErrChecksum so errors.Is matches either.
var ErrChecksum = fault.ErrChecksum

// modelFile is the JSON payload of a JSONVersion file. The zero-out filter is
// stored as packed rows to keep files compact.
type modelFile struct {
	Version int `json:"version"`
	// Generation is the serving-snapshot generation at save time; offline
	// training saves write 0.
	Generation uint64    `json:"generation,omitempty"`
	Rank       int       `json:"rank"`
	I          int       `json:"i"`
	J          int       `json:"j"`
	K          int       `json:"k"`
	U1         []float64 `json:"u1"`
	U2         []float64 `json:"u2"`
	U3         []float64 `json:"u3"`
	H          []float64 `json:"h"`
	ZeroOut    [][]bool  `json:"zero_out,omitempty"`
	// Train is the training-engine state of a mid-run checkpoint: optimizer
	// moments, RNG stream position, and completed epochs.
	Train *train.State `json:"train,omitempty"`
}

// SaveVersioned writes the model to w as a JSONVersion file recording the
// given serving-snapshot generation.
func (m *Model) SaveVersioned(w io.Writer, generation uint64) error {
	return m.encode(w, generation, nil)
}

func (m *Model) encode(w io.Writer, generation uint64, st *train.State) error {
	// The JSON format stores float64 factors; compact models are widened to
	// the exact values their scoring kernels compute with. Round-tripping a
	// compact model through JSON therefore preserves scores but not the
	// storage mode — use SaveBinary to keep both.
	m = m.Decompress()
	mf := modelFile{
		Version:    JSONVersion,
		Generation: generation,
		Rank:       m.Rank, I: m.I, J: m.J, K: m.K,
		U1: m.U1.Data, U2: m.U2.Data, U3: m.U3.Data, H: m.H,
		ZeroOut: m.ZeroOutFilter,
		Train:   st,
	}
	payload, err := json.Marshal(&mf)
	if err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	payload = append(payload, '\n')
	if err := fault.WriteFramed(w, JSONVersion, payload); err != nil {
		return fmt.Errorf("core: writing model: %w", err)
	}
	return nil
}

// SaveFileVersioned writes a JSONVersion model file crash-safely (temp file,
// fsync, atomic rename).
func (m *Model) SaveFileVersioned(path string, generation uint64) error {
	return fault.WriteFileAtomic(nil, path, func(w io.Writer) error {
		return m.encode(w, generation, nil)
	})
}

// SaveCheckpointRotate writes the model together with the training-engine
// state — a resumable checkpoint that doubles as a complete model file —
// crash-safely through fs (nil: the real filesystem), keeping up to keep
// rotated prior checkpoints (path.1 … path.keep) as a recovery ladder.
func (m *Model) SaveCheckpointRotate(fs fault.FS, path string, keep int, st *train.State) error {
	return fault.WriteFileRotate(fs, path, keep, func(w io.Writer) error {
		return m.encode(w, 0, st)
	})
}

// Info is what a model file records beside the factors.
type Info struct {
	Version    int          // frame version: JSONVersion or BinaryVersion
	Generation uint64       // serving-snapshot generation (0: an offline save)
	Train      *train.State // engine state of a checkpoint, nil for a plain model
}

// Decode reconstructs a model from the bytes of a model file, picking the
// decoder from the frame version. A BinaryVersion model may alias data
// (zero copy), so the caller must keep data alive and unmodified while the
// model is in use; a JSONVersion model is always a heap copy.
func Decode(data []byte) (*Model, Info, error) {
	return decode(data, JSONVersion, BinaryVersion)
}

// decode is Decode for a reader that accepts only the given frame versions.
func decode(data []byte, accept ...int) (*Model, Info, error) {
	version, payload, err := fault.Unseal(data, ErrFormatVersion, accept...)
	if err != nil {
		return nil, Info{}, err
	}
	if version == BinaryVersion {
		m, gen, err := decodeBinary(payload)
		return m, Info{Version: version, Generation: gen}, err
	}
	var mf modelFile
	if err := json.Unmarshal(payload, &mf); err != nil {
		return nil, Info{}, fmt.Errorf("core: decoding model: %w", err)
	}
	if mf.Version != JSONVersion {
		return nil, Info{}, fmt.Errorf("%w: v%d frame holds a document declaring v%d", ErrFormatVersion, version, mf.Version)
	}
	err = checkShape([3]int{mf.I, mf.J, mf.K}, mf.Rank, len(mf.H),
		int64(len(mf.U1)), int64(len(mf.U2)), int64(len(mf.U3)))
	if err != nil {
		return nil, Info{}, err
	}
	if mf.ZeroOut != nil {
		if len(mf.ZeroOut) != mf.I {
			return nil, Info{}, fmt.Errorf("core: zero-out filter covers %d users, want %d", len(mf.ZeroOut), mf.I)
		}
		for i, row := range mf.ZeroOut {
			if len(row) != mf.J {
				return nil, Info{}, fmt.Errorf("core: zero-out row %d covers %d POIs, want %d", i, len(row), mf.J)
			}
		}
	}
	m := &Model{
		Rank: mf.Rank, I: mf.I, J: mf.J, K: mf.K,
		U1:            mat.FromSlice(mf.I, mf.Rank, mf.U1),
		U2:            mat.FromSlice(mf.J, mf.Rank, mf.U2),
		U3:            mat.FromSlice(mf.K, mf.Rank, mf.U3),
		H:             mf.H,
		ZeroOutFilter: mf.ZeroOut,
	}
	return m, Info{Version: version, Generation: mf.Generation, Train: mf.Train}, nil
}

// checkShape validates the shape a model file declares against the element
// counts it carries, for both decoders. A file is outside input: every
// dimension is bounded to 31 bits first, so that dim·rank here and i·j for
// the zero-out bitset are computed in int64 without wrapping (a wrapped
// product is how an empty slab once passed for a 2^61-row one).
func checkShape(dims [3]int, rank, hLen int, u1, u2, u3 int64) error {
	for _, d := range [...]int{dims[0], dims[1], dims[2], rank} {
		if d <= 0 || d > math.MaxInt32 {
			return fmt.Errorf("core: model file has invalid shape %dx%dx%d rank %d", dims[0], dims[1], dims[2], rank)
		}
	}
	if hLen != rank {
		return fmt.Errorf("core: model file h has %d entries, want rank %d", hLen, rank)
	}
	for ax, n := range [...]int64{u1, u2, u3} {
		if want := int64(dims[ax]) * int64(rank); n != want {
			return fmt.Errorf("core: model file u%d has %d entries, shape %dx%d wants %d", ax+1, n, dims[ax], rank, want)
		}
	}
	return nil
}

// File is an opened model file: what it recorded, which rung of the rotation
// ladder it was, and the memory mapping the model may alias.
type File struct {
	Info
	// From is the path actually loaded: the requested one, or a rotated
	// predecessor when newer copies were missing, torn or corrupt.
	From string
	// Mapped reports that the model's factor slabs alias a live read-only
	// mapping of From (a BinaryVersion file on a platform with mmap): the
	// load copied nothing, the model must not be mutated in place (Clone
	// first; serving's observe path does), and Close must wait until the
	// model is discarded.
	Mapped bool

	mapping *mmapio.Mapping
}

// Close releases the mapping behind a mapped model; otherwise it is a no-op.
func (f *File) Close() error { return f.mapping.Close() }

// Open loads the newest intact model file on path's rotation ladder (path,
// path.1, …; see fault.LoadNewest), whichever of the two formats it is: a
// BinaryVersion file is memory-mapped and decoded in place, a JSONVersion
// file is decoded onto the heap. Close the returned File when the model is
// no longer in use.
func Open(path string) (m *Model, f *File, err error) {
	_, err = fault.LoadNewest(path, func(rung string) (err error) {
		m, f, err = openRung(rung, JSONVersion, BinaryVersion)
		return err
	})
	return m, f, err
}

// openRung opens exactly one file, accepting the given frame versions. The
// bytes are always read through a mapping; only a BinaryVersion model keeps
// it, because only its slabs alias the bytes — a JSONVersion document has
// been copied out by the decoder.
func openRung(path string, accept ...int) (*Model, *File, error) {
	mapping, err := mmapio.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	m, info, err := decode(mapping.Data, accept...)
	if err != nil || info.Version != BinaryVersion {
		mapping.Close()
		mapping = nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return m, &File{Info: info, From: path, Mapped: mapping != nil && mapping.Mapped, mapping: mapping}, nil
}

// LoadFileVersioned reads one model file of either format onto the heap and
// returns its generation: no ladder, no mapping, nothing to close.
func LoadFileVersioned(path string) (*Model, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("core: %w", err)
	}
	m, info, err := Decode(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%w (file %s)", err, path)
	}
	return m, info.Generation, nil
}
