package tcss

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
)

// TestLargeCatalogueHeap serves and grows a generated catalogue of 10 000
// POIs. Outside training nothing holds a POI×POI structure, so the live heap
// stays under 100 MB after attaching a model, a recommendation, an
// explanation and an observe that opens 16 POIs, and that observe allocates
// under 100 MB in all. A dense distance matrix alone would be 800 MB.
func TestLargeCatalogueHeap(t *testing.T) {
	const limit = 100 << 20
	start := time.Now()
	gen, err := lbsn.NewPreset(lbsn.PresetGowalla, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen.Users, gen.POIs = 1000, 10000
	ds, err := lbsn.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	full := ds.Tensor(Month)
	m := core.NewModel(full.DimI, full.DimJ, full.DimK, 10)
	if err := m.Initialize(RandomInit, full, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}

	var ms runtime.MemStats
	live := func(step string) {
		t.Helper()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > limit {
			t.Errorf("after %s the live heap is %d MB, want under %d MB", step, ms.HeapAlloc>>20, limit>>20)
		}
	}
	rec, err := AttachModel(m, ds, Month, DefaultConfig(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	live("AttachModel")
	if recs := rec.Recommend(0, 0, 10); len(recs) != 10 {
		t.Fatalf("Recommend returned %d POIs", len(recs))
	}
	live("Recommend")
	if ex := rec.Model.Explain(rec.Side, 0, 1, 0); ex.NearestOwnPOI < 0 {
		t.Fatalf("Explain found no own POI: %+v", ex)
	}
	live("Explain")

	J := rec.Model.J
	var batch ObserveBatch
	for n := 0; n < 16; n++ {
		batch.NewPOIs = append(batch.NewPOIs, lbsn.POI{ID: J + n, Loc: geo.Point{Lat: 30 + float64(n)/4, Lon: -100 + float64(n)}, Category: lbsn.Food})
		batch.CheckIns = append(batch.CheckIns, lbsn.CheckIn{User: 7 * n, POI: J + n, Month: n % 12, Week: 4 * (n % 12), Hour: 12})
	}
	allocated := ms.TotalAlloc
	if _, err := rec.ObserveOpen(batch, DefaultOnlineConfig()); err != nil {
		t.Fatal(err)
	}
	live("ObserveOpen")
	if rec.Model.J != J+16 {
		t.Fatalf("observe grew the model to %d POIs, want %d", rec.Model.J, J+16)
	}
	if a := ms.TotalAlloc - allocated; a > limit {
		t.Errorf("ObserveOpen allocated %d MB, want under %d MB", a>>20, limit>>20)
	}
	t.Logf("live heap %d MB after the observe, %s in all", ms.HeapAlloc>>20, time.Since(start).Round(time.Millisecond))
}
