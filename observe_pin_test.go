package tcss

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/mat"
	"tcss/internal/tensor"
)

// TestObservePinned pins, bit for bit, everything an observe sequence leaves
// behind: the returned count and error, the factors, the training tensor, the
// side information, the dataset, and whether the Recommender swapped in a new
// model. The sequence mixes in-range batches, a duplicate-only batch, and (on
// float64) arrivals, a bare out-of-range check-in and a users-only batch; the
// compact configurations record that growth is refused. A refactor of the
// observe transaction must leave every digest untouched.
func TestObservePinned(t *testing.T) {
	// One worker, so the digests do not depend on the machine's core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cases := []struct {
		name     string
		storage  StorageMode
		lambda   float64
		halfLife float64
		want     string
	}{
		{"f64", StorageFloat64, 0, 0, "f1293c82cc5e4f4851f7f5fc0a32f762cee339b17a56738a4e015721e169802f"},
		{"f64-lambda", StorageFloat64, 0.2, 0, "960b55b73b87a52619a1563fd31d9b1686e069cc9031923adccc9580e8d2ad83"},
		{"f64-decay", StorageFloat64, 0, 0.4, "b9eed75305c81c743d2cf5732907ea641344e8f633497240145a478651b9c69c"},
		{"f32", core.StorageFloat32, 0, 0, "e279a0511b2ec70f4b97b083b1f6a3e39d04c659d3022faa9a29ed251293e6ab"},
		{"int8-decay", core.StorageInt8, 0, 1, "9245b86e7a5acc34ffb542ee59323ba73129b080428efbf55c78e4b879f2181c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := smallDataset(t, 31)
			cfg := quickConfig()
			cfg.Epochs = 6
			cfg.Storage = tc.storage
			rec, err := Fit(ds, Month, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ocfg := DefaultOnlineConfig()
			ocfg.Epochs = 4
			ocfg.Seed = 9
			ocfg.Lambda = tc.lambda
			ocfg.DecayHalfLife = tc.halfLife

			h := sha256.New()
			rng := rand.New(rand.NewSource(31))
			inRange := func() []lbsn.CheckIn {
				cis := make([]lbsn.CheckIn, 8)
				for n := range cis {
					k := rng.Intn(12)
					cis[n] = lbsn.CheckIn{User: rng.Intn(rec.Model.I), POI: rng.Intn(rec.Model.J), Month: k, Week: 4 * k, Hour: 10}
				}
				return cis
			}
			step := func(observe func() (int, error)) (int, error) {
				before := rec.Model
				added, err := observe()
				digestObserveState(h, rec, added, err, rec.Model != before)
				return added, err
			}
			viaObserve := func(cis []lbsn.CheckIn) (int, error) {
				return step(func() (int, error) { return rec.Observe(cis, ocfg) })
			}
			viaOpen := func(b ObserveBatch) (int, error) {
				return step(func() (int, error) { return rec.ObserveOpen(b, ocfg) })
			}
			must := func(added int, err error) int {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				return added
			}

			for b := 0; b < 3; b++ {
				must(viaObserve(inRange()))
			}
			// A cell the tensor already holds at full weight adds nothing.
			var seen lbsn.CheckIn
			for _, e := range sortedEntries(rec.Train) {
				if e.Val == 1 {
					seen = lbsn.CheckIn{User: e.I, POI: e.J, Month: e.K, Week: 4 * e.K, Hour: 10}
					break
				}
			}
			before := rec.Model
			if added := must(viaObserve([]lbsn.CheckIn{seen})); added != 0 || rec.Model != before {
				t.Fatalf("duplicate cell: added %d, model swapped %v", added, rec.Model != before)
			}
			must(viaOpen(ObserveBatch{CheckIns: inRange()}))

			I, J := rec.Model.I, rec.Model.J
			arrivals := ObserveBatch{
				NewUsers: []lbsn.NewUser{{ID: I, Friends: []int{0, 1}}, {ID: I + 1, Friends: []int{I}}},
				NewPOIs:  []lbsn.POI{{ID: J + 1, Loc: geo.Point{Lat: 38.84, Lon: -77.3}, Category: lbsn.Food}},
				CheckIns: []lbsn.CheckIn{
					{User: I, POI: J + 1, Month: 4, Week: 17, Hour: 12},
					{User: I + 1, POI: 3, Month: 5, Week: 21, Hour: 18},
					{User: 2, POI: J + 1, Month: 6, Week: 25, Hour: 9},
				},
			}
			if tc.storage != StorageFloat64 {
				if _, err := viaOpen(arrivals); err == nil {
					t.Fatal("growth on a compact model must fail")
				}
			} else {
				must(viaOpen(arrivals))
				must(viaOpen(ObserveBatch{CheckIns: []lbsn.CheckIn{
					{User: rec.Model.I + 2, POI: 0, Month: 7, Week: 29, Hour: 8},
				}}))
				must(viaOpen(ObserveBatch{NewUsers: []lbsn.NewUser{{ID: rec.Model.I, Friends: []int{0}}}}))
				for b := 0; b < 2; b++ {
					must(viaObserve(inRange()))
				}
			}

			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// digestObserveState feeds one observe step's outcome and the Recommender's
// whole resulting state into h.
func digestObserveState(h hash.Hash, rec *Recommender, added int, err error, swapped bool) {
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	ints := func(vs ...int) {
		for _, v := range vs {
			word(uint64(v))
		}
	}
	floats := func(vs []float64) {
		for _, v := range vs {
			word(math.Float64bits(v))
		}
	}
	ints(added)
	if err != nil {
		h.Write([]byte(err.Error()))
	}
	h.Write([]byte{0})
	if swapped {
		ints(1)
	} else {
		ints(0)
	}

	m := rec.Model.Decompress()
	ints(m.I, m.J, m.K, m.Rank)
	for _, u := range []*mat.Matrix{m.U1, m.U2, m.U3} {
		floats(u.Data)
	}
	floats(m.H)

	entries := sortedEntries(rec.Train)
	ints(rec.Train.DimI, rec.Train.DimJ, rec.Train.DimK, len(entries))
	for _, e := range entries {
		ints(e.I, e.J, e.K)
		floats([]float64{e.Val})
	}

	side := rec.Side
	floats(side.EntropyW)
	for _, sets := range [][][]int{side.OwnPOIs, side.FriendPOIs} {
		ints(len(sets))
		for _, s := range sets {
			ints(len(s))
			ints(s...)
		}
	}
	ints(side.Dist.N, len(side.Locs))
	ints(rec.Dataset.NumUsers, len(rec.Dataset.POIs), len(rec.Dataset.CheckIns))
}

// sortedEntries is a copy of x's entries in (i, j, k) order.
func sortedEntries(x *tensor.COO) []tensor.Entry {
	out := slices.Clone(x.Entries())
	slices.SortFunc(out, func(a, b tensor.Entry) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J), cmp.Compare(a.K, b.K))
	})
	return out
}
