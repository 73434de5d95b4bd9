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

// ReadWeeksJSONL parses a drift stream written by WriteWeeksJSONL.
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
		wb := WeekBatch{Week: rec.Week, Month: rec.Month, ClosedPOIs: rec.ClosedPOIs}
		for _, u := range rec.NewUsers {
			wb.NewUsers = append(wb.NewUsers, NewUser{ID: u.ID, Friends: u.Friends})
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
		out = append(out, wb)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("lbsn: reading drift JSONL: %w", err)
	}
	return out, nil
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
