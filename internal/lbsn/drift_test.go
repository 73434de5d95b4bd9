package lbsn

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func driftTestConfig(seed int64) DriftConfig {
	base, err := NewPreset(PresetGMU5K, seed)
	if err != nil {
		panic(err)
	}
	base.Users, base.POIs = 60, 50
	return DriftConfig{
		Base:             base,
		Weeks:            6,
		StartWeek:        14,
		NewUsersPerWeek:  3,
		NewPOIsPerWeek:   2,
		CloseProbPerWeek: 0.01,
		Seed:             seed + 1,
	}
}

func TestGenerateDriftDeterministic(t *testing.T) {
	a, err := GenerateDrift(driftTestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDrift(driftTestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Weeks, b.Weeks) {
		t.Fatal("same config produced different streams")
	}
	if len(a.Base.CheckIns) != len(b.Base.CheckIns) {
		t.Fatal("same config produced different base datasets")
	}
	c, err := GenerateDrift(driftTestConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Weeks, c.Weeks) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGenerateDriftStructure(t *testing.T) {
	cfg := driftTestConfig(11)
	d, err := GenerateDrift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Weeks) != cfg.Weeks {
		t.Fatalf("weeks = %d, want %d", len(d.Weeks), cfg.Weeks)
	}
	// The base must be a valid, pristine closed world.
	if err := d.Base.Validate(); err != nil {
		t.Fatalf("base invalid: %v", err)
	}
	if d.Base.NumUsers != cfg.Base.Users || len(d.Base.POIs) != cfg.Base.POIs {
		t.Fatal("weekly batches leaked into the base dataset")
	}

	users, pois := d.Base.NumUsers, len(d.Base.POIs)
	closed := map[int]bool{}
	var arrivals, openings, checkIns int
	for n, wb := range d.Weeks {
		if wb.Week != cfg.StartWeek+n {
			t.Fatalf("week %d has index %d", n, wb.Week)
		}
		if wb.Month != monthOfWeek(wb.Week%53) {
			t.Fatalf("week %d month = %d", wb.Week, wb.Month)
		}
		for _, u := range wb.NewUsers {
			if u.ID != users {
				t.Fatalf("new user id %d, want contiguous %d", u.ID, users)
			}
			for _, f := range u.Friends {
				if f < 0 || f >= users && f != u.ID {
					// friends may include same-week earlier arrivals
					if f >= u.ID {
						t.Fatalf("user %d befriends not-yet-existing %d", u.ID, f)
					}
				}
			}
			users++
			arrivals++
		}
		for _, p := range wb.NewPOIs {
			if p.ID != pois {
				t.Fatalf("new POI id %d, want contiguous %d", p.ID, pois)
			}
			if p.Cluster < 0 || p.Cluster >= cfg.Base.Clusters {
				t.Fatalf("new POI cluster %d", p.Cluster)
			}
			pois++
			openings++
		}
		for _, j := range wb.ClosedPOIs {
			if j < 0 || j >= pois {
				t.Fatalf("closed unknown POI %d", j)
			}
			closed[j] = true
		}
		for _, c := range wb.CheckIns {
			if c.User < 0 || c.User >= users {
				t.Fatalf("check-in by unknown user %d (have %d)", c.User, users)
			}
			if c.POI < 0 || c.POI >= pois {
				t.Fatalf("check-in at unknown POI %d (have %d)", c.POI, pois)
			}
			if closed[c.POI] {
				t.Fatalf("check-in at closed POI %d in week %d", c.POI, wb.Week)
			}
			if c.Week != wb.Week%53 || c.Month != wb.Month {
				t.Fatalf("check-in calendar (%d,%d) disagrees with week batch (%d,%d)",
					c.Month, c.Week, wb.Month, wb.Week%53)
			}
			if c.Hour < 0 || c.Hour > 23 {
				t.Fatalf("check-in hour %d", c.Hour)
			}
			checkIns++
		}
	}
	if arrivals == 0 || openings == 0 || checkIns == 0 {
		t.Fatalf("degenerate stream: %d arrivals, %d openings, %d check-ins", arrivals, openings, checkIns)
	}
}

func TestDriftSeasonalShift(t *testing.T) {
	// Over a long stream, outdoor check-in share in July must exceed the
	// January share — the category-popularity drift the ISSUE requires.
	cfg := driftTestConfig(13)
	cfg.Weeks = 53
	cfg.StartWeek = 0
	cfg.NewUsersPerWeek, cfg.NewPOIsPerWeek, cfg.CloseProbPerWeek = 0, 0, 0
	d, err := GenerateDrift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	share := func(month int) float64 {
		var outdoor, total int
		for _, wb := range d.Weeks {
			if wb.Month != month {
				continue
			}
			for _, c := range wb.CheckIns {
				if d.Base.POIs[c.POI].Category == Outdoor {
					outdoor++
				}
				total++
			}
		}
		if total == 0 {
			t.Fatalf("no check-ins in month %d", month)
		}
		return float64(outdoor) / float64(total)
	}
	jan, jul := share(0), share(6)
	if jul <= jan {
		t.Errorf("outdoor share July %.3f <= January %.3f — no seasonal drift", jul, jan)
	}
}

func TestDriftWeeksJSONLRoundTrip(t *testing.T) {
	d, err := GenerateDrift(driftTestConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWeeksJSONL(&buf, d.Weeks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWeeksJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d.Weeks) {
		t.Fatal("drift stream did not round-trip through JSONL")
	}
}

// Two one-line drift streams that reached `tcss replay` and panicked there:
// a negative user indexes a slice at -1, month 99 is outside the model.
const (
	negativeUserLine = `{"week":15,"month":3,"checkins":[{"user":-1,"poi":3,"month":3,"week":15,"hour":10}]}`
	month99Line      = `{"week":15,"month":3,"checkins":[{"user":1,"poi":3,"month":99,"week":15,"hour":10}]}`
)

func TestReadWeeksJSONLRejectsWhatNoDatasetHolds(t *testing.T) {
	const good = `{"week":15,"month":3,"checkins":[{"user":1,"poi":3,"month":3,"week":15,"hour":10}]}`
	if _, err := ReadWeeksJSONL(strings.NewReader(good)); err != nil {
		t.Fatalf("valid line rejected: %v", err)
	}
	for _, c := range []struct{ name, line, want string }{
		{"negative user", negativeUserLine, "user -1"},
		{"month out of range", month99Line, "calendar (99,15,10)"},
		{"negative POI", `{"week":15,"month":3,"checkins":[{"user":1,"poi":-3,"month":3,"week":15,"hour":10}]}`, "POI -3"},
		{"hour out of range", `{"week":15,"month":3,"checkins":[{"user":1,"poi":3,"month":3,"week":15,"hour":24}]}`, "calendar (3,15,24)"},
		{"negative new user", `{"week":15,"month":3,"new_users":[{"id":-60}]}`, "new user id -60"},
		{"negative friend", `{"week":15,"month":3,"new_users":[{"id":60,"friends":[-2]}]}`, "friend id -2"},
		{"negative new POI", `{"week":15,"month":3,"new_pois":[{"id":-50}]}`, "new POI id -50"},
		{"negative closed POI", `{"week":15,"month":3,"closed_pois":[-1]}`, "closed POI id -1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadWeeksJSONL(strings.NewReader(good + "\n" + c.line + "\n"))
			if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming line 2 and %q", err, c.want)
			}
		})
	}
}

// FuzzReadWeeksJSONL: no input panics the decoder, and a stream it accepts
// re-encodes and decodes to the same weeks.
func FuzzReadWeeksJSONL(f *testing.F) {
	cfg := driftTestConfig(19)
	cfg.Weeks = 2
	d, err := GenerateDrift(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	if err := WriteWeeksJSONL(&stream, d.Weeks); err != nil {
		f.Fatal(err)
	}
	f.Add(stream.Bytes())
	f.Add([]byte(negativeUserLine))
	f.Add([]byte(month99Line))
	f.Add([]byte(`{"week":15,"month":3,"new_pois":[{"id":40,"lat":91,"lon":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		weeks, err := ReadWeeksJSONL(bytes.NewReader(data))
		for _, w := range weeks {
			for _, p := range w.NewPOIs {
				if !p.Loc.Valid() {
					t.Fatalf("accepted new POI %d at %v", p.ID, p.Loc)
				}
			}
		}
		// Re-encoding spells out every field, so a large input of empty
		// records could outgrow the decoder's 16 MiB line limit.
		if err != nil || len(data) > 256<<10 {
			return
		}
		var out bytes.Buffer
		if err := WriteWeeksJSONL(&out, weeks); err != nil {
			t.Fatal(err)
		}
		again, err := ReadWeeksJSONL(&out)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if !reflect.DeepEqual(again, weeks) {
			t.Fatalf("stream changed across re-encoding:\n%+v\nvs\n%+v", again, weeks)
		}
	})
}
