package lbsn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// TestGeneratePinned pins the synthetic generator bit for bit: one digest per
// preset over the dataset Generate builds (every POI with its coordinates,
// every social edge, every check-in), and one over a 3-week GenerateDrift
// stream (its base dataset, then each week's arrivals with their friends,
// openings, closures and check-ins). Every golden of the repository starts
// from Generate, so a change to its draw order must move a digest here
// before it moves one there.
func TestGeneratePinned(t *testing.T) {
	want := map[string]string{
		PresetGowalla:    "4bae28aece919908dc62f9ef203f83bc7c4188f3bfee1c45406f8e2067466c80",
		PresetYelp:       "abdaf3c03f8d4613670cbaea17f8508890c37bdd9a0f1169a5cc00757c12c946",
		PresetFoursquare: "2ac56f4db230c833a3aca9c7bf69a2f6d228120c630d1ba022469449fdadac0a",
		PresetGMU5K:      "1e70f24b1cf5471ae104a9a67cdd19c27668c8a1dee750fc1ab4082383954a30",
		"drift":          "c70af24fb6221a57dca6415cb6eac7a5ad0496876dbe3b9dc1c23ab13c69f045",
	}
	got := map[string]string{}
	for _, name := range PresetNames() {
		cfg, err := NewPreset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		digestDataset(h, ds)
		got[name] = hex.EncodeToString(h.Sum(nil))
	}

	cfg := driftTestConfig(3)
	cfg.Weeks, cfg.CloseProbPerWeek = 3, 0.05
	d, err := GenerateDrift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals, openings, closures int
	for _, wb := range d.Weeks {
		arrivals, openings, closures = arrivals+len(wb.NewUsers), openings+len(wb.NewPOIs), closures+len(wb.ClosedPOIs)
	}
	if arrivals == 0 || openings == 0 || closures == 0 {
		t.Fatalf("drift stream has %d arrivals, %d openings, %d closures; the pin needs each", arrivals, openings, closures)
	}
	h := sha256.New()
	digestDataset(h, d.Base)
	for _, wb := range d.Weeks {
		word(h, wb.Week, wb.Month, len(wb.NewUsers))
		for _, u := range wb.NewUsers {
			word(h, u.ID, len(u.Friends))
			word(h, u.Friends...)
		}
		digestPOIs(h, wb.NewPOIs)
		word(h, len(wb.ClosedPOIs))
		word(h, wb.ClosedPOIs...)
		digestCheckIns(h, wb.CheckIns)
	}
	got["drift"] = hex.EncodeToString(h.Sum(nil))

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest %s, want %s", name, got[name], w)
		}
	}
}

func word(h hash.Hash, vs ...int) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
}

func digestDataset(h hash.Hash, ds *Dataset) {
	word(h, ds.NumUsers)
	digestPOIs(h, ds.POIs)
	edges := ds.Social.Edges()
	word(h, len(edges))
	for _, e := range edges {
		word(h, e[0], e[1])
	}
	digestCheckIns(h, ds.CheckIns)
}

func digestPOIs(h hash.Hash, pois []POI) {
	word(h, len(pois))
	for _, p := range pois {
		word(h, p.ID, int(math.Float64bits(p.Loc.Lat)), int(math.Float64bits(p.Loc.Lon)), int(p.Category), p.Cluster, p.PeakMonth)
	}
}

func digestCheckIns(h hash.Hash, cs []CheckIn) {
	word(h, len(cs))
	for _, c := range cs {
		word(h, c.User, c.POI, c.Month, c.Week, c.Hour)
	}
}
