package lbsn

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"tcss/internal/geo"
	"tcss/internal/graph"
)

// The file names used by WriteDir / ReadDir. The on-disk format is three
// headered CSV files so real LBSN dumps (Gowalla-style check-in exports) can
// be converted into it with a one-line awk script.
const (
	poisFile     = "pois.csv"
	checkinsFile = "checkins.csv"
	edgesFile    = "edges.csv"
)

// WriteDir persists the dataset as CSV files inside dir, creating it if
// needed.
func (d *Dataset) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("lbsn: creating %s: %w", dir, err)
	}
	if err := writeCSV(filepath.Join(dir, poisFile), append([][]string{{"id", "lat", "lon", "category", "cluster", "peak_month"}}, poiRows(d.POIs)...)); err != nil {
		return err
	}
	rows := [][]string{{"user", "poi", "month", "week", "hour"}}
	for _, c := range d.CheckIns {
		rows = append(rows, []string{
			strconv.Itoa(c.User), strconv.Itoa(c.POI),
			strconv.Itoa(c.Month), strconv.Itoa(c.Week), strconv.Itoa(c.Hour),
		})
	}
	if err := writeCSV(filepath.Join(dir, checkinsFile), rows); err != nil {
		return err
	}
	erows := [][]string{{"u", "v"}}
	for _, e := range d.Social.Edges() {
		erows = append(erows, []string{strconv.Itoa(e[0]), strconv.Itoa(e[1])})
	}
	return writeCSV(filepath.Join(dir, edgesFile), erows)
}

func poiRows(pois []POI) [][]string {
	rows := make([][]string, len(pois))
	for i, p := range pois {
		rows[i] = []string{
			strconv.Itoa(p.ID),
			strconv.FormatFloat(p.Loc.Lat, 'f', -1, 64),
			strconv.FormatFloat(p.Loc.Lon, 'f', -1, 64),
			strconv.Itoa(int(p.Category)),
			strconv.Itoa(p.Cluster),
			strconv.Itoa(p.PeakMonth),
		}
	}
	return rows
}

func writeCSV(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("lbsn: creating %s: %w", path, err)
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return fmt.Errorf("lbsn: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lbsn: closing %s: %w", path, err)
	}
	return nil
}

// ReadDir loads a dataset previously written by WriteDir (or converted from a
// real LBSN dump). name is attached to the result; users are inferred from
// the maximum user index across check-ins and edges.
func ReadDir(dir, name string) (*Dataset, error) {
	poiRows, err := readCSV(filepath.Join(dir, poisFile))
	if err != nil {
		return nil, err
	}
	var pois []POI
	for _, row := range poiRows {
		vals, err := atoiRow(row[:1])
		if err != nil {
			return nil, fmt.Errorf("lbsn: %s: %w", poisFile, err)
		}
		lat, err1 := strconv.ParseFloat(row[1], 64)
		lon, err2 := strconv.ParseFloat(row[2], 64)
		cat, err3 := strconv.Atoi(row[3])
		cluster, err4 := strconv.Atoi(row[4])
		peak, err5 := strconv.Atoi(row[5])
		loc := geo.Point{Lat: lat, Lon: lon}
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || !loc.Valid() {
			return nil, fmt.Errorf("lbsn: %s: malformed row %v", poisFile, row)
		}
		pois = append(pois, POI{ID: vals[0], Loc: loc, Category: Category(cat), Cluster: cluster, PeakMonth: peak})
	}

	ciRows, err := readCSV(filepath.Join(dir, checkinsFile))
	if err != nil {
		return nil, err
	}
	var checkins []CheckIn
	maxUser := -1
	for _, row := range ciRows {
		vals, err := atoiRow(row)
		if err != nil {
			return nil, fmt.Errorf("lbsn: %s: %w", checkinsFile, err)
		}
		checkins = append(checkins, CheckIn{User: vals[0], POI: vals[1], Month: vals[2], Week: vals[3], Hour: vals[4]})
		if vals[0] > maxUser {
			maxUser = vals[0]
		}
	}

	edgeRows, err := readCSV(filepath.Join(dir, edgesFile))
	if err != nil {
		return nil, err
	}
	edges := make([][2]int, 0, len(edgeRows))
	for _, row := range edgeRows {
		vals, err := atoiRow(row)
		if err != nil {
			return nil, fmt.Errorf("lbsn: %s: %w", edgesFile, err)
		}
		edges = append(edges, [2]int{vals[0], vals[1]})
		for _, v := range vals[:2] {
			if v > maxUser {
				maxUser = v
			}
		}
	}
	if maxUser < 0 {
		return nil, fmt.Errorf("lbsn: dataset in %s has no users", dir)
	}
	social := graph.New(maxUser + 1)
	for _, e := range edges {
		social.AddEdge(e[0], e[1])
	}
	ds := &Dataset{Name: name, NumUsers: maxUser + 1, POIs: pois, CheckIns: checkins, Social: social}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

func readCSV(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lbsn: opening %s: %w", path, err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	if _, err := r.Read(); err != nil { // header
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("lbsn: reading header of %s: %w", path, err)
	}
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("lbsn: reading %s: %w", path, err)
	}
	return rows, nil
}

func atoiRow(row []string) ([]int, error) {
	out := make([]int, len(row))
	for i, s := range row {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("malformed integer %q", s)
		}
		out[i] = v
	}
	return out, nil
}
