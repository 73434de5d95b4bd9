package tcss_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/serve"
)

// TestGeographyPinned pins, bit for bit, every distance a fitted gowalla
// recommender reads: d_max, and the nearest friend and own POI with their
// distances in Explain for every user at five seeded POIs each. The sweep is
// repeated after an observe that opens three POIs, and on a replica that
// decodes the grown snapshot against its pre-growth distance matrix. A change
// to how distances are stored or grown must leave the digest untouched.
func TestGeographyPinned(t *testing.T) {
	// One worker, so the fit does not depend on the machine's core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const want = "09c76b1aba14b71c6ce42bf7e6cf845669104dd968afadc6cca97dec7c8cc7d3"

	ds := tcss.GenerateDataset("gowalla", 11)
	cfg := tcss.DefaultConfig()
	cfg.Epochs = 4
	cfg.Rank = 5
	cfg.Seed = 5
	rec, err := tcss.Fit(ds, tcss.Month, cfg)
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	sweep := func(m *core.Model, side *core.SideInfo, seed int64) {
		word(uint64(side.Dist.N))
		word(math.Float64bits(side.Dist.DMax))
		rng := rand.New(rand.NewSource(seed))
		for u := 0; u < m.I; u++ {
			for n := 0; n < 5; n++ {
				ex := m.Explain(side, u, rng.Intn(m.J), 0)
				word(uint64(ex.NearestFriendPOI))
				word(math.Float64bits(ex.NearestFriendDist))
				word(uint64(ex.NearestOwnPOI))
				word(math.Float64bits(ex.NearestOwnDistance))
			}
		}
	}
	sweep(rec.Model, rec.Side, 1)

	before := rec.Side.Dist
	I, J := rec.Model.I, rec.Model.J
	ocfg := tcss.DefaultOnlineConfig()
	ocfg.Epochs = 3
	ocfg.Seed = 2
	batch := tcss.ObserveBatch{
		NewPOIs: []lbsn.POI{
			{ID: J, Loc: geo.Point{Lat: 38.84, Lon: -77.30}, Category: lbsn.Food},
			{ID: J + 1, Loc: geo.Point{Lat: 61.22, Lon: -149.90}, Category: lbsn.Food}, // widens d_max
			{ID: J + 2, Loc: geo.Point{Lat: 38.91, Lon: -77.04}, Category: lbsn.Food},
		},
		CheckIns: []lbsn.CheckIn{
			{User: 0, POI: J, Month: 4, Week: 17, Hour: 12},
			{User: 1, POI: J + 1, Month: 5, Week: 21, Hour: 18},
			{User: I - 1, POI: J + 2, Month: 6, Week: 25, Hour: 9},
			{User: 2, POI: 3, Month: 7, Week: 29, Hour: 8},
		},
	}
	if _, err := rec.ObserveOpen(batch, ocfg); err != nil {
		t.Fatal(err)
	}
	if rec.Model.J != J+3 {
		t.Fatalf("observe grew the model to %d POIs, want %d", rec.Model.J, J+3)
	}
	sweep(rec.Model, rec.Side, 2)

	shipment, err := serve.EncodeShipment(&serve.Snapshot{Gen: 7, Model: rec.Model, Side: rec.Side})
	if err != nil {
		t.Fatal(err)
	}
	model, side, _, err := serve.DecodeShipment(shipment, before)
	if err != nil {
		t.Fatal(err)
	}
	sweep(model, side, 3)

	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
