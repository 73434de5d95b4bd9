package lbsn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"tcss/internal/geo"
	"tcss/internal/graph"
)

// NewUser describes a user arriving in an open-world stream: its id and the
// existing users it befriends on arrival (preferential attachment — popular
// users accumulate newcomers, the rich-get-richer growth real social graphs
// exhibit).
type NewUser struct {
	ID      int
	Friends []int
}

// WeekBatch is one simulated week of an open-world stream: the entities that
// appeared or disappeared, then the week's check-ins (which may reference the
// week's own arrivals).
type WeekBatch struct {
	Week       int // absolute simulated week index, starting at DriftConfig.StartWeek
	Month      int // calendar month the week's check-ins are stamped with
	NewUsers   []NewUser
	NewPOIs    []POI
	ClosedPOIs []int // POIs that stop receiving check-ins from this week on
	CheckIns   []CheckIn
}

// Drift is a deterministic open-world stream: a closed-world starting
// dataset plus per-week growth batches.
type Drift struct {
	Base  *Dataset
	Weeks []WeekBatch
}

// DriftConfig controls the open-world stream generator. The zero values of
// the optional fields select the documented defaults.
type DriftConfig struct {
	// Base configures the closed-world dataset the stream starts from.
	Base GenConfig
	// Weeks is the number of simulated weeks to emit.
	Weeks int
	// StartWeek is the absolute week-of-year the stream starts at (0-52);
	// pick a shoulder season to make the category-popularity shift visible
	// over a short stream.
	StartWeek int
	// NewUsersPerWeek / NewPOIsPerWeek are Poisson arrival rates.
	NewUsersPerWeek float64
	NewPOIsPerWeek  float64
	// CloseProbPerWeek is each open POI's weekly probability of closing.
	// A cluster's last open POI never closes.
	CloseProbPerWeek float64
	// FriendsPerNewUser is the number of preferential-attachment edges each
	// arrival wires into the existing graph (default 3).
	FriendsPerNewUser int
	// CheckInsPerUserWeek is the mean weekly check-in count per active user
	// (default Base.CheckInsPerUser/52, the base dataset's yearly budget
	// spread over the calendar).
	CheckInsPerUserWeek float64
	// SeasonalAmplitude in [0,1] scales the week-over-week category
	// popularity shift, applied by sharpening the shared per-category month
	// profiles (default 1: the full profiles).
	SeasonalAmplitude float64
	// Seed drives the stream; 0 derives Base.Seed+1 so base and stream are
	// independent but jointly reproducible.
	Seed int64
}

func (cfg DriftConfig) withDefaults() DriftConfig {
	if cfg.FriendsPerNewUser == 0 {
		cfg.FriendsPerNewUser = 3
	}
	if cfg.CheckInsPerUserWeek == 0 {
		cfg.CheckInsPerUserWeek = cfg.Base.CheckInsPerUser / 52
	}
	if cfg.SeasonalAmplitude == 0 {
		cfg.SeasonalAmplitude = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = cfg.Base.Seed + 1
	}
	return cfg
}

// GenerateDrift synthesizes a deterministic open-world stream: the base
// dataset from cfg.Base, then cfg.Weeks weekly batches in which users arrive
// by preferential attachment, POIs open and close, and category popularity
// follows the same monthly profiles the static generator samples from — so
// the drift a model sees online is distributionally consistent with the world
// it was trained on. The same config always produces the same stream; the
// returned Base is untouched by the weekly batches.
func GenerateDrift(cfg DriftConfig) (*Drift, error) {
	cfg = cfg.withDefaults()
	if cfg.Weeks <= 0 {
		return nil, fmt.Errorf("lbsn: drift needs positive Weeks, got %d", cfg.Weeks)
	}
	if cfg.StartWeek < 0 || cfg.StartWeek > 52 {
		return nil, fmt.Errorf("lbsn: drift StartWeek %d out of range", cfg.StartWeek)
	}
	base, err := Generate(cfg.Base)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Simulation state. The social graph and POI list are clones/copies so
	// the returned Base stays the pristine closed world a model trains on.
	social := base.Social.Clone()
	pois := append([]POI(nil), base.POIs...)
	closed := make([]bool, len(pois))
	numUsers := base.NumUsers
	byUser := make([][]CheckIn, numUsers)
	for _, c := range base.CheckIns {
		byUser[c.User] = append(byUser[c.User], c)
	}

	// Latent preference state. Home clusters reuse the generator's blockwise
	// assignment (a deterministic formula); tastes and popularity are
	// re-drawn from the stream's own rng — the stream models the same kind
	// of world, not the base's exact latent draws.
	clusters := cfg.Base.Clusters
	homeCluster := make([]int, numUsers)
	for u := range homeCluster {
		homeCluster[u] = u * clusters / cfg.Base.Users
	}
	taste := make([][numCategories]float64, numUsers)
	for u := range taste {
		taste[u] = drawTaste(rng)
	}
	popRank := rng.Perm(len(pois))
	popWeight := make([]float64, len(pois))
	for j := range popWeight {
		popWeight[j] = 1 / math.Pow(float64(popRank[j]+1), cfg.Base.ZipfS)
	}

	// Cluster geometry recovered from the base POIs: centroids of each
	// cluster's members place new POIs where the city actually is.
	centroids := make([]geo.Point, clusters)
	counts := make([]int, clusters)
	for _, p := range pois {
		centroids[p.Cluster].Lat += p.Loc.Lat
		centroids[p.Cluster].Lon += p.Loc.Lon
		counts[p.Cluster]++
	}
	for c := range centroids {
		if counts[c] > 0 {
			centroids[c].Lat /= float64(counts[c])
			centroids[c].Lon /= float64(counts[c])
		} else {
			centroids[c] = cfg.Base.Box.RandomPoint(rng)
		}
	}

	openByCluster := func(c int) []int {
		var out []int
		for j, p := range pois {
			if p.Cluster == c && !closed[j] {
				out = append(out, j)
			}
		}
		return out
	}
	allOpen := func() []int {
		var out []int
		for j := range pois {
			if !closed[j] {
				out = append(out, j)
			}
		}
		return out
	}

	hourProfiles := [numCategories][24]float64{}
	monthProfiles := [numCategories][12]float64{}
	for _, c := range Categories() {
		hourProfiles[c] = hourProfile(c)
		monthProfiles[c] = sharpen(monthProfile(c), cfg.Base.SeasonalSharpness)
	}
	// The weekly category-popularity shift: in the static generator the
	// month is sampled given the POI; in a stream the calendar is given, so
	// the same profiles act as POI-choice weights instead. SeasonalAmplitude
	// interpolates them toward uniform exactly like SeasonalSharpness does.
	seasonal := [numCategories][12]float64{}
	for _, c := range Categories() {
		seasonal[c] = sharpen(monthProfile(c), cfg.SeasonalAmplitude)
	}

	out := &Drift{Base: base}
	for n := 0; n < cfg.Weeks; n++ {
		week := cfg.StartWeek + n
		weekOfYear := week % 53
		month := monthOfWeek(weekOfYear)
		batch := WeekBatch{Week: week, Month: month}

		// 1. Arrivals: preferential attachment into the social graph.
		for a := poissonLike(cfg.NewUsersPerWeek, rng); a > 0; a-- {
			v := social.AddVertices(1)
			friends := social.PreferentialAttach(v, cfg.FriendsPerNewUser, rng)
			batch.NewUsers = append(batch.NewUsers, NewUser{ID: v, Friends: friends})
			homeCluster = append(homeCluster, rng.Intn(clusters))
			taste = append(taste, drawTaste(rng))
			byUser = append(byUser, nil)
			numUsers++
		}

		// 2. New POIs open near an existing cluster's centroid, starting in
		// the popularity tail (a new venue has no reputation yet).
		for a := poissonLike(cfg.NewPOIsPerWeek, rng); a > 0; a-- {
			cluster := rng.Intn(clusters)
			cat := Category(rng.Intn(int(numCategories)))
			p := POI{
				ID:        len(pois),
				Loc:       geo.Jitter(centroids[cluster], cfg.Base.ClusterSigmaDeg, rng),
				Category:  cat,
				Cluster:   cluster,
				PeakMonth: sampleIndexArr(monthProfile(cat), rng),
			}
			pois = append(pois, p)
			closed = append(closed, false)
			popWeight = append(popWeight, (1+rng.Float64())/math.Pow(float64(len(pois)), cfg.Base.ZipfS))
			batch.NewPOIs = append(batch.NewPOIs, p)
		}

		// 3. Closures, sparing each cluster's last open POI.
		if cfg.CloseProbPerWeek > 0 {
			for j := range pois {
				if closed[j] || rng.Float64() >= cfg.CloseProbPerWeek {
					continue
				}
				if len(openByCluster(pois[j].Cluster)) <= 1 {
					continue
				}
				closed[j] = true
				batch.ClosedPOIs = append(batch.ClosedPOIs, j)
			}
		}

		// 4. Check-ins, sampled with the static generator's primitives plus
		// the seasonal category weight for the week's month.
		open := allOpen()
		userWeight := func(u, j int) float64 {
			cat := pois[j].Category
			return popWeight[j] * taste[u][cat] * seasonal[cat][month]
		}
		for u := 0; u < numUsers; u++ {
			n := poissonLike(cfg.CheckInsPerUserWeek, rng)
			for c := 0; c < n; c++ {
				j := sampleDriftPOI(u, social, byUser, closed, pois, homeCluster,
					openByCluster, open, userWeight, cfg.Base, rng)
				if j < 0 {
					continue
				}
				cat := pois[j].Category
				ci := CheckIn{
					User:  u,
					POI:   j,
					Month: month,
					Week:  weekOfYear,
					Hour:  sampleIndex(hourProfiles[cat][:], rng),
				}
				byUser[u] = append(byUser[u], ci)
				batch.CheckIns = append(batch.CheckIns, ci)
			}
		}
		out.Weeks = append(out.Weeks, batch)
	}
	return out, nil
}

// drawTaste draws a user's normalized category preference, for the static
// generator's users and the stream's arrivals alike: squared uniforms, so
// most users have one or two dominant categories.
func drawTaste(rng *rand.Rand) [numCategories]float64 {
	var t [numCategories]float64
	var sum float64
	for c := range t {
		t[c] = math.Pow(rng.Float64(), 2) + 0.05
		sum += t[c]
	}
	for c := range t {
		t[c] /= sum
	}
	return t
}

// sampleDriftPOI mirrors the static generator's POI choice — friend
// adoption, then locality, then the full pool — restricted to open POIs.
// Returns -1 when no open POI exists at all.
func sampleDriftPOI(u int, social *graph.Graph, byUser [][]CheckIn, closed []bool,
	pois []POI, homeCluster []int, openByCluster func(int) []int, open []int,
	weight func(int, int) float64, base GenConfig, rng *rand.Rand) int {
	if len(open) == 0 {
		return -1
	}
	w := func(j int) float64 { return weight(u, j) }
	if base.FriendAdoption > 0 && rng.Float64() < base.FriendAdoption {
		friends := slices.Clone(social.Neighbors(u))
		rng.Shuffle(len(friends), func(a, b int) { friends[a], friends[b] = friends[b], friends[a] })
		for _, f := range friends {
			if len(byUser[f]) == 0 {
				continue
			}
			adopted := byUser[f][rng.Intn(len(byUser[f]))].POI
			if !closed[adopted] && rng.Float64() < exactAdoptFrac {
				return adopted
			}
			if pool := openByCluster(pois[adopted].Cluster); len(pool) > 0 {
				return weightedPOI(pool, w, rng)
			}
			break
		}
	}
	pool := openByCluster(homeCluster[u])
	if len(pool) == 0 || rng.Float64() >= base.LocalityBias {
		pool = open
	}
	return weightedPOI(pool, w, rng)
}
