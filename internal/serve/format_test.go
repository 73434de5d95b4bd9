package serve

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tcss/internal/baselines"
	"tcss/internal/core"
	"tcss/internal/geo"
)

// TestReadersAcceptExactlyWhatTheirWritersEmit crosses every kind of sealed
// file the repository writes with every reader: a reader loads the kinds its
// own writer emits and nothing else. Wherever the frame version is not one
// of the reader's, the error is the reader's version sentinel — a sequential
// state given to -model is "unsupported format", not "invalid shape 0x0x0" —
// and where two kinds share a frame version (state and shipment are
// both v1) the payload decoder still refuses. No cell panics.
func TestReadersAcceptExactlyWhatTheirWritersEmit(t *testing.T) {
	read := func(parts ...string) []byte {
		data, err := os.ReadFile(filepath.Join(parts...))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	pts := make([]geo.Point, 4)
	for j := range pts {
		pts[j] = geo.Point{Lat: 30 + 0.01*float64(j), Lon: -97 - 0.02*float64(j)}
	}
	dist := geo.NewDistanceMatrix(pts)

	shipped, _, err := core.Decode(read("..", "core", "testdata", "model_v5_int8.bin"))
	if err != nil {
		t.Fatal(err)
	}
	entropyW := make([]float64, shipped.J)
	for j := range entropyW {
		entropyW[j] = 1
	}
	shipment, err := EncodeShipment(&Snapshot{Gen: 9, Model: shipped, Side: &core.SideInfo{
		EntropyW: entropyW, OwnPOIs: make([][]int, shipped.I), FriendPOIs: make([][]int, shipped.I),
		Locs: pts[:shipped.J],
	}})
	if err != nil {
		t.Fatal(err)
	}

	inputs := []struct {
		name  string
		kind  string // which reader's writer emitted it
		frame int
		data  []byte
	}{
		{"model v4", "core", core.JSONVersion, read("..", "core", "testdata", "model_v4.json")},
		{"checkpoint v4", "core", core.JSONVersion, read("..", "core", "testdata", "checkpoint_v4.json")},
		{"model v5 f64", "core", core.BinaryVersion, read("..", "core", "testdata", "model_v5_f64.bin")},
		{"model v5 f32", "core", core.BinaryVersion, read("..", "core", "testdata", "model_v5_f32.bin")},
		{"model v5 int8", "core", core.BinaryVersion, read("..", "core", "testdata", "model_v5_int8.bin")},
		{"STRNN state v1", "baselines", baselines.SeqStateVersion, read("..", "baselines", "testdata", "strnn_state_v1.json")},
		{"shipment v1", "serve", ShipVersion, shipment},
	}

	onDisk := func(data []byte) string {
		p := filepath.Join(t.TempDir(), "f")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	readers := []struct {
		name     string
		kind     string
		accepts  []int
		sentinel error
		load     func(data []byte) error
	}{
		{"core.Decode", "core", []int{core.JSONVersion, core.BinaryVersion}, core.ErrFormatVersion, func(data []byte) error {
			_, _, err := core.Decode(data)
			return err
		}},
		{"core.Open", "core", []int{core.JSONVersion, core.BinaryVersion}, core.ErrFormatVersion, func(data []byte) error {
			_, f, err := core.Open(onDisk(data))
			if err == nil {
				f.Close()
			}
			return err
		}},
		{"LoadSeqState", "baselines", []int{baselines.SeqStateVersion}, baselines.ErrSeqStateVersion, func(data []byte) error {
			_, _, err := baselines.LoadSeqState(onDisk(data), dist)
			return err
		}},
		{"DecodeShipment", "serve", []int{ShipVersion}, errShipVersion, func(data []byte) error {
			_, _, _, err := DecodeShipment(data, nil)
			return err
		}},
	}

	for _, in := range inputs {
		for _, r := range readers {
			err := r.load(in.data)
			switch {
			case in.kind == r.kind:
				if err != nil {
					t.Errorf("%s rejected its own %s: %v", r.name, in.name, err)
				}
			case err == nil:
				t.Errorf("%s accepted a %s", r.name, in.name)
			case !slices.Contains(r.accepts, in.frame) && !errors.Is(err, r.sentinel):
				t.Errorf("%s on a %s (frame v%d): err = %v, want its version sentinel", r.name, in.name, in.frame, err)
			}
		}
	}
}
