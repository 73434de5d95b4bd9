package lbsn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tcss/internal/geo"
)

// jsonlWeek is the JSON-lines record for one simulated week of an open-world
// stream: one line per week, carrying arrivals, openings, closures and the
// week's check-ins. It is the interchange format datagen's drift mode emits
// and the replay tooling consumes.
type jsonlWeek struct {
	Week       int            `json:"week"`
	Month      int            `json:"month"`
	NewUsers   []jsonlNewUser `json:"new_users,omitempty"`
	NewPOIs    []jsonlPOI     `json:"new_pois,omitempty"`
	ClosedPOIs []int          `json:"closed_pois,omitempty"`
	CheckIns   []jsonlCheckIn `json:"checkins,omitempty"`
}

type jsonlCheckIn struct {
	User  int `json:"user"`
	POI   int `json:"poi"`
	Month int `json:"month"`
	Week  int `json:"week"`
	Hour  int `json:"hour"`
}

type jsonlNewUser struct {
	ID      int   `json:"id"`
	Friends []int `json:"friends,omitempty"`
}

type jsonlPOI struct {
	ID        int     `json:"id"`
	Lat       float64 `json:"lat"`
	Lon       float64 `json:"lon"`
	Category  int     `json:"category"`
	Cluster   int     `json:"cluster"`
	PeakMonth int     `json:"peak_month"`
}

// WriteWeeksJSONL streams the drift batches to w, one JSON line per week.
func WriteWeeksJSONL(w io.Writer, weeks []WeekBatch) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, wb := range weeks {
		rec := jsonlWeek{Week: wb.Week, Month: wb.Month, ClosedPOIs: wb.ClosedPOIs}
		for _, u := range wb.NewUsers {
			rec.NewUsers = append(rec.NewUsers, jsonlNewUser{ID: u.ID, Friends: u.Friends})
		}
		for _, p := range wb.NewPOIs {
			rec.NewPOIs = append(rec.NewPOIs, jsonlPOI{
				ID: p.ID, Lat: p.Loc.Lat, Lon: p.Loc.Lon,
				Category: int(p.Category), Cluster: p.Cluster, PeakMonth: p.PeakMonth,
			})
		}
		for _, c := range wb.CheckIns {
			rec.CheckIns = append(rec.CheckIns, jsonlCheckIn{User: c.User, POI: c.POI, Month: c.Month, Week: c.Week, Hour: c.Hour})
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("lbsn: encoding drift week %d: %w", wb.Week, err)
		}
	}
	return bw.Flush()
}

// ReadWeeksJSONL parses a drift stream written by WriteWeeksJSONL. The stream
// is outside input: a line holding a negative id or an out-of-range check-in
// calendar is an error naming the line.
func ReadWeeksJSONL(r io.Reader) ([]WeekBatch, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []WeekBatch
	line := 0
	for scanner.Scan() {
		line++
		raw := scanner.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec jsonlWeek
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("lbsn: drift JSONL line %d: %w", line, err)
		}
		wb := WeekBatch{Week: rec.Week, Month: rec.Month, ClosedPOIs: nilIfEmpty(rec.ClosedPOIs)}
		for _, u := range rec.NewUsers {
			wb.NewUsers = append(wb.NewUsers, NewUser{ID: u.ID, Friends: nilIfEmpty(u.Friends)})
		}
		for _, p := range rec.NewPOIs {
			wb.NewPOIs = append(wb.NewPOIs, POI{
				ID: p.ID, Loc: geo.Point{Lat: p.Lat, Lon: p.Lon},
				Category: Category(p.Category), Cluster: p.Cluster, PeakMonth: p.PeakMonth,
			})
		}
		for _, c := range rec.CheckIns {
			wb.CheckIns = append(wb.CheckIns, CheckIn{User: c.User, POI: c.POI, Month: c.Month, Week: c.Week, Hour: c.Hour})
		}
		if err := wb.check(); err != nil {
			return nil, fmt.Errorf("lbsn: drift JSONL line %d: %w", line, err)
		}
		out = append(out, wb)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("lbsn: reading drift JSONL: %w", err)
	}
	return out, nil
}

// nilIfEmpty maps an empty list to nil: the writer omits both, so a decoded
// week re-encodes and decodes to itself.
func nilIfEmpty(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	return ids
}

// check rejects what no dataset can hold, so a bad stream fails here rather
// than as an index panic where it is replayed: a negative id, or a check-in
// calendar outside the ranges Dataset.Validate enforces. The upper bounds of
// ids depend on the dataset the stream grows and are its consumer's to check.
func (wb *WeekBatch) check() error {
	for _, u := range wb.NewUsers {
		if u.ID < 0 {
			return fmt.Errorf("new user id %d is negative", u.ID)
		}
		for _, f := range u.Friends {
			if f < 0 {
				return fmt.Errorf("new user %d has negative friend id %d", u.ID, f)
			}
		}
	}
	for _, p := range wb.NewPOIs {
		if p.ID < 0 {
			return fmt.Errorf("new POI id %d is negative", p.ID)
		}
		if !p.Loc.Valid() {
			return fmt.Errorf("new POI %d has coordinates %v outside [-90, 90] × [-180, 180]", p.ID, p.Loc)
		}
	}
	for _, j := range wb.ClosedPOIs {
		if j < 0 {
			return fmt.Errorf("closed POI id %d is negative", j)
		}
	}
	for _, c := range wb.CheckIns {
		if c.User < 0 || c.POI < 0 {
			return fmt.Errorf("check-in references user %d, POI %d", c.User, c.POI)
		}
		if err := c.checkCalendar(); err != nil {
			return err
		}
	}
	return nil
}

// WriteWeeksJSONLFile writes the drift batches to a file.
func WriteWeeksJSONLFile(path string, weeks []WeekBatch) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("lbsn: creating %s: %w", path, err)
	}
	if err := WriteWeeksJSONL(f, weeks); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lbsn: closing %s: %w", path, err)
	}
	return nil
}

// ReadWeeksJSONLFile reads a drift stream from a file.
func ReadWeeksJSONLFile(path string) ([]WeekBatch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lbsn: opening %s: %w", path, err)
	}
	defer f.Close()
	return ReadWeeksJSONL(f)
}
