// Package lbsn models a location-based social network: users, categorized
// POIs with geographic coordinates, timestamped check-ins, and a friendship
// graph. It contains a patterns-of-life generator that synthesizes datasets
// with the structures the paper's experiments rely on — geographic POI
// clusters (Tobler locality), homophilous friendships with co-visitation
// (social homophily), per-category seasonal and diurnal visit profiles, and
// Zipf-distributed POI popularity — plus CSV persistence and the conversion
// from check-ins to the user-POI-time tensor at month, week or hour
// granularity.
//
// The four named presets (Gowalla, Yelp, Foursquare, GMU5K) reproduce each
// paper dataset's relative density, user/POI ratio and social structure at a
// scale that trains in seconds on a laptop.
package lbsn

import (
	"fmt"

	"tcss/internal/geo"
	"tcss/internal/graph"
	"tcss/internal/tensor"
)

// Category labels a POI with one of the four Gowalla category groups used in
// the Figure 4/5/7 experiments.
type Category int

// The POI categories of the Gowalla dataset, in the order the paper lists
// them.
const (
	Shopping Category = iota
	Entertainment
	Food
	Outdoor
	numCategories
)

// Categories lists every category in order.
func Categories() []Category {
	return []Category{Shopping, Entertainment, Food, Outdoor}
}

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Shopping:
		return "shopping"
	case Entertainment:
		return "entertainment"
	case Food:
		return "food"
	case Outdoor:
		return "outdoor"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// POI is a point of interest.
type POI struct {
	ID       int
	Loc      geo.Point
	Category Category
	Cluster  int // geographic cluster the generator placed it in
	// PeakMonth is the month (0-11) where this POI's individual visit
	// propensity peaks; the generator blends it with the category profile
	// so the time dimension carries per-POI signal, as real LBSN data does
	// (a ski shop and a beach bar are both "outdoor" yet peak oppositely).
	PeakMonth int
}

// CheckIn is one user visit to a POI. The three calendar fields are the time
// indices at the three granularities the paper evaluates: month of year
// (0-11), week of year (0-52) and hour of day (0-23).
type CheckIn struct {
	User, POI         int
	Month, Week, Hour int
}

// Granularity selects the time dimension used to build the check-in tensor.
type Granularity int

// The three granularities of Figures 4 and 5.
const (
	Month Granularity = iota
	Week
	Hour
)

// Len returns the number of time units at this granularity.
func (g Granularity) Len() int {
	switch g {
	case Month:
		return 12
	case Week:
		return 53
	case Hour:
		return 24
	}
	panic(fmt.Sprintf("lbsn: unknown granularity %d", int(g)))
}

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case Month:
		return "month"
	case Week:
		return "week"
	case Hour:
		return "hour"
	}
	return fmt.Sprintf("granularity(%d)", int(g))
}

// Index returns the check-in's time index at this granularity.
func (g Granularity) Index(c CheckIn) int {
	switch g {
	case Month:
		return c.Month
	case Week:
		return c.Week
	case Hour:
		return c.Hour
	}
	panic(fmt.Sprintf("lbsn: unknown granularity %d", int(g)))
}

// Dataset is a complete LBSN snapshot.
type Dataset struct {
	Name     string
	NumUsers int
	POIs     []POI
	CheckIns []CheckIn
	Social   *graph.Graph

	distCache *geo.DistanceMatrix
}

// Validate checks referential integrity: every check-in must reference a
// valid user, POI and calendar indices, and the social graph must cover all
// users.
func (d *Dataset) Validate() error {
	if d.NumUsers <= 0 || len(d.POIs) == 0 {
		return fmt.Errorf("lbsn: dataset %q has %d users and %d POIs", d.Name, d.NumUsers, len(d.POIs))
	}
	if d.Social == nil || d.Social.N() != d.NumUsers {
		return fmt.Errorf("lbsn: dataset %q social graph does not cover users", d.Name)
	}
	for idx, p := range d.POIs {
		if p.ID != idx {
			return fmt.Errorf("lbsn: POI at position %d has ID %d", idx, p.ID)
		}
	}
	for _, c := range d.CheckIns {
		if c.User < 0 || c.User >= d.NumUsers {
			return fmt.Errorf("lbsn: check-in references user %d of %d", c.User, d.NumUsers)
		}
		if c.POI < 0 || c.POI >= len(d.POIs) {
			return fmt.Errorf("lbsn: check-in references POI %d of %d", c.POI, len(d.POIs))
		}
		if err := c.checkCalendar(); err != nil {
			return fmt.Errorf("lbsn: %w", err)
		}
	}
	return nil
}

// checkCalendar reports a check-in whose month, week or hour is not a time
// index of its granularity.
func (c CheckIn) checkCalendar() error {
	for _, g := range []Granularity{Month, Week, Hour} {
		if k := g.Index(c); k < 0 || k >= g.Len() {
			return fmt.Errorf("check-in has calendar (%d,%d,%d) out of range", c.Month, c.Week, c.Hour)
		}
	}
	return nil
}

// Locations returns the POI coordinates in ID order.
func (d *Dataset) Locations() []geo.Point {
	pts := make([]geo.Point, len(d.POIs))
	for i, p := range d.POIs {
		pts[i] = p.Loc
	}
	return pts
}

// Distances returns the (cached) POI distances: the coordinates and d_max,
// which costs O(J²) Haversines on the first call.
func (d *Dataset) Distances() *geo.DistanceMatrix {
	if d.distCache == nil {
		d.distCache = geo.NewDistanceMatrix(d.Locations())
	}
	return d.distCache
}

// Tensor builds the binary user-POI-time check-in tensor at the given
// granularity: entry (i, j, k) is 1 iff user i checked in at POI j during
// time unit k. Duplicate check-ins in the same unit collapse to a single 1,
// matching the paper's formulation.
func (d *Dataset) Tensor(g Granularity) *tensor.COO {
	t := tensor.NewCOO(d.NumUsers, len(d.POIs), g.Len())
	for _, c := range d.CheckIns {
		t.Set(c.User, c.POI, g.Index(c), 1)
	}
	return t
}

// CategoryPOIs returns the IDs of POIs in the given category, ascending.
func (d *Dataset) CategoryPOIs(cat Category) []int {
	var ids []int
	for _, p := range d.POIs {
		if p.Category == cat {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// CategorySlice returns a new dataset restricted to one POI category, with
// POIs re-indexed densely. Check-ins to other categories are dropped; users
// and the social graph are kept as-is so user indices stay aligned. This is
// the per-category setup of Figures 4, 5 and 7.
func (d *Dataset) CategorySlice(cat Category) *Dataset {
	keep := d.CategoryPOIs(cat)
	remap := make(map[int]int, len(keep))
	pois := make([]POI, len(keep))
	for newID, oldID := range keep {
		remap[oldID] = newID
		p := d.POIs[oldID]
		p.ID = newID
		pois[newID] = p
	}
	out := &Dataset{
		Name:     fmt.Sprintf("%s/%s", d.Name, cat),
		NumUsers: d.NumUsers,
		POIs:     pois,
		Social:   d.Social,
	}
	for _, c := range d.CheckIns {
		if nj, ok := remap[c.POI]; ok {
			c.POI = nj
			out.CheckIns = append(out.CheckIns, c)
		}
	}
	return out
}

// Stats summarizes the dataset for logging and EXPERIMENTS.md.
type Stats struct {
	Users, POIs, CheckIns, Edges int
	TensorDensityMonth           float64
	MeanCheckInsPerUser          float64
	MeanDegree                   float64
}

// Summary computes dataset statistics.
func (d *Dataset) Summary() Stats {
	t := d.Tensor(Month)
	return Stats{
		Users:               d.NumUsers,
		POIs:                len(d.POIs),
		CheckIns:            len(d.CheckIns),
		Edges:               d.Social.EdgeCount(),
		TensorDensityMonth:  t.Density(),
		MeanCheckInsPerUser: float64(len(d.CheckIns)) / float64(d.NumUsers),
		MeanDegree:          d.Social.AverageDegree(),
	}
}
