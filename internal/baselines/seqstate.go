package baselines

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"

	"tcss/internal/fault"
	"tcss/internal/geo"
	"tcss/internal/nn"
)

// SeqStateVersion is the frame version of sequential-model state files, and
// the only one LoadSeqState reads. The payload is JSON (named parameter
// tensors + per-user final hidden states) wrapped in the standard fault frame,
// so corruption is caught by the same CRC32-C check as model snapshots and
// files participate in the same rotation/fallback ladder.
const SeqStateVersion = 1

// ErrSeqStateVersion reports a file that is not a SeqStateVersion frame.
var ErrSeqStateVersion = errors.New("baselines: sequential state file has unsupported format version")

// seqState is the serialized form shared by all three sequential models.
// Float64 slices round-trip bit-exactly through encoding/json (Go prints the
// shortest representation that parses back to the same float), which is what
// makes save → load → serve responses byte-identical.
type seqState struct {
	Kind       string               `json:"kind"`
	Generation uint64               `json:"generation"`
	Rank       int                  `json:"rank"`
	Users      int                  `json:"users"`
	POIs       int                  `json:"pois"`
	Times      int                  `json:"times"`
	Params     map[string][]float64 `json:"params"`
	FinalH     [][]float64          `json:"final_h,omitempty"`
	Sequences  [][]Visit            `json:"sequences,omitempty"` // STAN only
}

// captureState implements SeqServer for STRNN.
func (s *STRNN) captureState() (*seqState, error) {
	if !s.fit {
		return nil, ErrNotFitted
	}
	return &seqState{
		Kind: "STRNN", Rank: s.rank,
		Users: len(s.finalH), POIs: s.embPOI.N, Times: s.embTime.N,
		Params: map[string][]float64{
			"poi.W":   s.embPOI.W,
			"time.W":  s.embTime.W,
			"cell.Wx": s.cell.Wx,
			"cell.Wh": s.cell.Wh,
			"cell.B":  s.cell.B,
		},
		FinalH: s.finalH,
	}, nil
}

// captureState implements SeqServer for STGN.
func (s *STGN) captureState() (*seqState, error) {
	if !s.fit {
		return nil, ErrNotFitted
	}
	return &seqState{
		Kind: "STGN", Rank: s.rank,
		Users: len(s.finalH), POIs: s.embPOI.N, Times: s.embTime.N,
		Params: map[string][]float64{
			"poi.W":    s.embPOI.W,
			"time.W":   s.embTime.W,
			"cell.W":   s.cell.W,
			"cell.B":   s.cell.B,
			"cell.WxT": s.cell.WxT,
			"cell.WtT": s.cell.WtT,
			"cell.BT":  s.cell.BT,
			"cell.WxD": s.cell.WxD,
			"cell.WdD": s.cell.WdD,
			"cell.BD":  s.cell.BD,
		},
		FinalH: s.finalH,
	}, nil
}

// captureState implements SeqServer for STAN. STAN has no rolled state, but
// serving its recommend path needs the training trajectories, so they are
// persisted alongside the embeddings.
func (s *STAN) captureState() (*seqState, error) {
	if !s.fit {
		return nil, ErrNotFitted
	}
	return &seqState{
		Kind: "STAN", Rank: s.rank,
		Users: s.embUser.N, POIs: s.embPOI.N, Times: s.embTime.N,
		Params: map[string][]float64{
			"user.W": s.embUser.W,
			"poi.W":  s.embPOI.W,
			"time.W": s.embTime.W,
		},
		Sequences: s.seqs,
	}, nil
}

// SaveSeqState writes the model's weights and serving state to path with the
// crash-safe temp+fsync+rename protocol and rotation (keep older copies as
// path.1 … path.keep). fs may be nil for the real filesystem.
func SaveSeqState(fs fault.FS, path string, keep int, generation uint64, m SeqServer) error {
	st, err := m.captureState()
	if err != nil {
		return err
	}
	st.Generation = generation
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("baselines: encoding %s state: %w", st.Kind, err)
	}
	return fault.WriteFileRotate(fs, path, keep, func(w io.Writer) error {
		return fault.WriteFramed(w, SeqStateVersion, payload)
	})
}

// LoadSeqState reads a state file written by SaveSeqState and rebuilds the
// model, returning it with the generation recorded at save time. dist must be
// the same POI distance matrix the model was trained with (STRNN and STGN
// consume Δd transition features at query time); STAN ignores it.
func LoadSeqState(path string, dist *geo.DistanceMatrix) (SeqServer, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	_, payload, err := fault.Unseal(data, ErrSeqStateVersion, SeqStateVersion)
	if err != nil {
		return nil, 0, fmt.Errorf("baselines: reading %s: %w", path, err)
	}
	var st seqState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, 0, fmt.Errorf("baselines: decoding %s: %w", path, err)
	}
	m, err := restoreSeq(&st, dist)
	if err != nil {
		return nil, 0, fmt.Errorf("baselines: restoring %s: %w", path, err)
	}
	return m, st.Generation, nil
}

// LoadSeqStateFallback loads the newest intact state file on path's rotation
// ladder (fault.LoadNewest), mirroring the model snapshot recovery policy,
// and returns the path it came from.
func LoadSeqStateFallback(path string, dist *geo.DistanceMatrix) (m SeqServer, gen uint64, from string, err error) {
	from, err = fault.LoadNewest(path, func(rung string) (err error) {
		m, gen, err = LoadSeqState(rung, dist)
		return err
	})
	return m, gen, from, err
}

func restoreSeq(st *seqState, dist *geo.DistanceMatrix) (SeqServer, error) {
	if st.Rank <= 0 || st.Users <= 0 || st.POIs <= 0 || st.Times <= 0 {
		return nil, fmt.Errorf("invalid dims rank=%d users=%d pois=%d times=%d", st.Rank, st.Users, st.POIs, st.Times)
	}
	// Constructors need an RNG for initialization; every weight is then
	// overwritten from the file, so the seed is irrelevant.
	rng := rand.New(rand.NewSource(1))
	r := st.Rank
	switch st.Kind {
	case "STRNN":
		if dist == nil {
			return nil, fmt.Errorf("STRNN needs the training distance matrix")
		}
		s := NewSTRNN()
		s.rank = r
		s.embPOI = nn.NewEmbedding("strnn.poi", st.POIs, r, rng)
		s.embTime = nn.NewEmbedding("strnn.time", st.Times, r, rng)
		s.cell = nn.NewRNNCell("strnn.cell", r+2, r, rng)
		if err := fillParams(st.Params, map[string][]float64{
			"poi.W": s.embPOI.W, "time.W": s.embTime.W,
			"cell.Wx": s.cell.Wx, "cell.Wh": s.cell.Wh, "cell.B": s.cell.B,
		}); err != nil {
			return nil, err
		}
		if err := checkFinalH(st.FinalH, st.Users, r); err != nil {
			return nil, err
		}
		s.finalH = st.FinalH
		s.dist = dist
		s.fit = true
		return s, nil
	case "STGN":
		if dist == nil {
			return nil, fmt.Errorf("STGN needs the training distance matrix")
		}
		s := NewSTGN()
		s.rank = r
		s.embPOI = nn.NewEmbedding("stgn.poi", st.POIs, r, rng)
		s.embTime = nn.NewEmbedding("stgn.time", st.Times, r, rng)
		s.cell = nn.NewSTLSTMCell("stgn.cell", r, r, rng)
		if err := fillParams(st.Params, map[string][]float64{
			"poi.W": s.embPOI.W, "time.W": s.embTime.W,
			"cell.W": s.cell.W, "cell.B": s.cell.B,
			"cell.WxT": s.cell.WxT, "cell.WtT": s.cell.WtT, "cell.BT": s.cell.BT,
			"cell.WxD": s.cell.WxD, "cell.WdD": s.cell.WdD, "cell.BD": s.cell.BD,
		}); err != nil {
			return nil, err
		}
		if err := checkFinalH(st.FinalH, st.Users, r); err != nil {
			return nil, err
		}
		s.finalH = st.FinalH
		s.dist = dist
		s.fit = true
		return s, nil
	case "STAN":
		s := NewSTAN()
		s.rank = r
		s.embUser = nn.NewEmbedding("stan.user", st.Users, r, rng)
		s.embPOI = nn.NewEmbedding("stan.poi", st.POIs, r, rng)
		s.embTime = nn.NewEmbedding("stan.time", st.Times, r, rng)
		s.attn = &nn.Attention{Dim: r}
		if err := fillParams(st.Params, map[string][]float64{
			"user.W": s.embUser.W, "poi.W": s.embPOI.W, "time.W": s.embTime.W,
		}); err != nil {
			return nil, err
		}
		if len(st.Sequences) != st.Users {
			return nil, fmt.Errorf("sequences for %d users, want %d", len(st.Sequences), st.Users)
		}
		for i, seq := range st.Sequences {
			for _, v := range seq {
				if v.POI < 0 || v.POI >= st.POIs || v.TimeIndex < 0 || v.TimeIndex >= st.Times {
					return nil, fmt.Errorf("user %d has out-of-range visit (%d,%d)", i, v.POI, v.TimeIndex)
				}
			}
		}
		s.seqs = st.Sequences
		s.ctxCache = make(map[int64][]float64)
		s.fit = true
		return s, nil
	}
	return nil, fmt.Errorf("unknown sequential model kind %q", st.Kind)
}

// fillParams copies each named parameter from the file into the freshly
// constructed tensors, validating presence and exact length.
func fillParams(got map[string][]float64, want map[string][]float64) error {
	for name, dst := range want {
		src, ok := got[name]
		if !ok {
			return fmt.Errorf("missing parameter %q", name)
		}
		if len(src) != len(dst) {
			return fmt.Errorf("parameter %q has %d values, want %d", name, len(src), len(dst))
		}
		copy(dst, src)
	}
	return nil
}

func checkFinalH(finalH [][]float64, users, rank int) error {
	if len(finalH) != users {
		return fmt.Errorf("final states for %d users, want %d", len(finalH), users)
	}
	for i, h := range finalH {
		if len(h) != rank {
			return fmt.Errorf("final state of user %d has rank %d, want %d", i, len(h), rank)
		}
	}
	return nil
}
