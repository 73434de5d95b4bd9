package baselines

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"tcss/internal/fault"
	"tcss/internal/geo"
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

// captureState implements SeqServer.
func (m *recurrent) captureState() (*seqState, error) {
	if !m.fit {
		return nil, ErrNotFitted
	}
	return &seqState{
		Kind: m.name, Rank: m.embPOI.Dim,
		Users: len(m.finalH), POIs: m.embPOI.N, Times: m.embTime.N,
		Params: m.params, FinalH: m.finalH,
	}, nil
}

// admit implements SeqServer. The cell reads Δd between any two POIs at
// query time, so dist must cover exactly the model's POIs. build sizes the
// POI and time tables from st's dims and the cell from its rank alone (at
// most 8·rank² values a parameter), so the file must carry both tables whole
// and at least rank² cell values.
func (m *recurrent) admit(st *seqState, dist *geo.DistanceMatrix) error {
	if dist == nil || dist.N != st.POIs {
		return fmt.Errorf("%s needs the training distance matrix over its %d POIs", m.name, st.POIs)
	}
	cell := 0
	for name, p := range st.Params {
		if strings.HasPrefix(name, "cell.") {
			cell += len(p)
		}
	}
	if cell/st.Rank < st.Rank {
		return fmt.Errorf("cell parameters hold %d values, fewer than rank² at rank %d", cell, st.Rank)
	}
	return errors.Join(st.table("poi.W", st.POIs), st.table("time.W", st.Times))
}

// restore implements SeqServer.
func (m *recurrent) restore(st *seqState, dist *geo.DistanceMatrix) error {
	if err := fillParams(st.Params, m.params); err != nil {
		return err
	}
	if len(st.FinalH) != st.Users {
		return fmt.Errorf("final states for %d users, want %d", len(st.FinalH), st.Users)
	}
	for i, h := range st.FinalH {
		if len(h) != st.Rank {
			return fmt.Errorf("final state of user %d has rank %d, want %d", i, len(h), st.Rank)
		}
	}
	m.finalH, m.dist, m.fit = st.FinalH, dist, true
	return nil
}

// captureState implements SeqServer. STAN has no rolled state, but serving
// its recommend path needs the training trajectories, so they are persisted
// alongside the embeddings.
func (s *STAN) captureState() (*seqState, error) {
	if !s.fit {
		return nil, ErrNotFitted
	}
	return &seqState{
		Kind: "STAN", Rank: s.attn.Dim,
		Users: s.embUser.N, POIs: s.embPOI.N, Times: s.embTime.N,
		Params: s.params, Sequences: s.seqs,
	}, nil
}

// admit implements SeqServer: build sizes STAN's three tables from st's
// dims, so the file must carry each one whole. STAN never reads dist.
func (s *STAN) admit(st *seqState, _ *geo.DistanceMatrix) error {
	return errors.Join(st.table("user.W", st.Users), st.table("poi.W", st.POIs), st.table("time.W", st.Times))
}

// restore implements SeqServer.
func (s *STAN) restore(st *seqState, _ *geo.DistanceMatrix) error {
	if err := fillParams(st.Params, s.params); err != nil {
		return err
	}
	if len(st.Sequences) != st.Users {
		return fmt.Errorf("sequences for %d users, want %d", len(st.Sequences), st.Users)
	}
	for i, seq := range st.Sequences {
		for _, v := range seq {
			if v.POI < 0 || v.POI >= st.POIs || v.TimeIndex < 0 || v.TimeIndex >= st.Times {
				return fmt.Errorf("user %d has out-of-range visit (%d,%d)", i, v.POI, v.TimeIndex)
			}
		}
	}
	s.seqs = st.Sequences
	s.ctxCache = make(map[int64][]float64)
	s.fit = true
	return nil
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
// consume Δd transition features at query time, and refuse a matrix over a
// different number of POIs); STAN ignores it.
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
	m, ok := SeqLookup(st.Kind)
	if !ok {
		return nil, fmt.Errorf("unknown sequential model kind %q", st.Kind)
	}
	if err := m.admit(st, dist); err != nil {
		return nil, err
	}
	// build draws initial weights; every one is then overwritten from the
	// file, so the seed is irrelevant.
	m.build(st.Users, st.POIs, st.Times, st.Rank, rand.New(rand.NewSource(1)))
	if err := m.restore(st, dist); err != nil {
		return nil, err
	}
	return m, nil
}

// table checks that the file's parameter name holds exactly rows·Rank
// values. It divides rather than multiplies, so no declared size can
// overflow into a match.
func (st *seqState) table(name string, rows int) error {
	if n := len(st.Params[name]); n%st.Rank != 0 || n/st.Rank != rows {
		return fmt.Errorf("parameter %q has %d values, want %d rows of %d", name, n, rows, st.Rank)
	}
	return nil
}

// fillParams copies each named parameter from the file into the freshly
// built tensors, validating presence and exact length.
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
