package lbsn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"tcss/internal/geo"
	"tcss/internal/graph"
)

// GenConfig controls the patterns-of-life generator. The defaults in the
// preset constructors are tuned so the generated tensors exhibit the same
// qualitative structure as the paper's datasets: low-rank user-POI-time
// interactions, social co-visitation, geographic locality and category
// seasonality.
type GenConfig struct {
	Name  string
	Users int
	POIs  int

	// Geography. POIs are scattered around Clusters cluster centers inside
	// Box with Gaussian spread ClusterSigmaDeg (degrees).
	Clusters        int
	Box             geo.BoundingBox
	ClusterSigmaDeg float64

	// Social graph. A Watts-Strogatz backbone with mean degree
	// SocialDegree rewired with probability Rewire, plus homophilous
	// shortcuts between users whose home clusters coincide with
	// probability HomophilyEdgeProb. Every user keeps at least one friend.
	SocialDegree      int
	Rewire            float64
	HomophilyEdgeProb float64

	// Check-in behaviour. Each user produces a Poisson-like number of
	// check-ins with mean CheckInsPerUser. A check-in picks its POI by, in
	// order of precedence: adopting a friend's earlier check-in (probability
	// FriendAdoption), staying in the home cluster (probability
	// LocalityBias), or sampling any POI. POI choice within a pool is
	// Zipf-weighted by popularity rank with exponent ZipfS.
	CheckInsPerUser float64
	FriendAdoption  float64
	LocalityBias    float64
	ZipfS           float64

	// SeasonalSharpness scales how concentrated the per-category monthly
	// profiles are; 0 makes every month equally likely, 1 uses the full
	// profile.
	SeasonalSharpness float64

	// POISeasonality in [0, 1] is the weight of each POI's individual
	// peak-month profile relative to its category profile when sampling a
	// check-in month. Higher values make the time dimension more
	// informative per POI.
	POISeasonality float64

	Seed int64
}

// Preset names accepted by NewPreset and the datagen CLI.
const (
	PresetGowalla    = "gowalla"
	PresetYelp       = "yelp"
	PresetFoursquare = "foursquare"
	PresetGMU5K      = "gmu-5k"
)

// PresetNames lists the available dataset presets in paper order.
func PresetNames() []string {
	return []string{PresetGowalla, PresetYelp, PresetFoursquare, PresetGMU5K}
}

// NewPreset returns the generator configuration for one of the paper's four
// datasets, scaled to train in seconds. Relative properties are preserved:
// Gowalla is the reference; Yelp is markedly sparser (the paper attributes
// its lower scores to this); Foursquare has more users per POI; GMU-5K is the
// dense simulator-born dataset (paper density 3.21%).
func NewPreset(name string, seed int64) (GenConfig, error) {
	// The paper's datasets are worldwide: check-ins cluster inside cities
	// that are hundreds to thousands of kilometers apart. The bounding box
	// spans the continental US and each cluster is one city, so random
	// negative POIs usually live in a different city — the geometry the
	// social Hausdorff head exploits.
	continental := geo.BoundingBox{MinLat: 26, MaxLat: 47, MinLon: -122, MaxLon: -70}
	base := GenConfig{
		Name:              name,
		Clusters:          10,
		Box:               continental,
		ClusterSigmaDeg:   0.05,
		SocialDegree:      4,
		Rewire:            0.2,
		HomophilyEdgeProb: 0.01,
		FriendAdoption:    0.32,
		LocalityBias:      0.75,
		ZipfS:             0.9,
		SeasonalSharpness: 1.0,
		POISeasonality:    0.8,
		Seed:              seed,
	}
	// Check-in budgets keep each user's coverage of the POI universe at
	// the paper's scale (a user sees ~0.5-2% of POIs), which is the regime
	// where the social-spatial side information genuinely adds signal the
	// check-in tensor alone does not carry.
	switch name {
	case PresetGowalla:
		base.Users, base.POIs, base.CheckInsPerUser = 360, 800, 18
	case PresetYelp:
		// Sparser still: fewer check-ins per user over a larger POI pool;
		// the paper attributes Yelp's lower scores to this sparsity.
		base.Users, base.POIs, base.CheckInsPerUser = 340, 500, 10
		base.FriendAdoption = 0.18
	case PresetFoursquare:
		base.Users, base.POIs, base.CheckInsPerUser = 420, 700, 13
	case PresetGMU5K:
		// Dense patterns-of-life simulation (paper density 3.21%).
		base.Users, base.POIs, base.CheckInsPerUser = 220, 200, 90
		base.LocalityBias = 0.85
	default:
		return GenConfig{}, fmt.Errorf("lbsn: unknown preset %q (want one of %v)", name, PresetNames())
	}
	return base, nil
}

// Generate synthesizes a dataset from the configuration. The same
// configuration (including Seed) always produces the same dataset.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.Users <= 0 || cfg.POIs <= 0 {
		return nil, fmt.Errorf("lbsn: config needs positive Users and POIs, got %d/%d", cfg.Users, cfg.POIs)
	}
	if cfg.Clusters <= 0 {
		return nil, fmt.Errorf("lbsn: config needs positive Clusters, got %d", cfg.Clusters)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// 1. Geographic cluster centers and POIs. Categories are interleaved so
	// every cluster contains all categories.
	centers := make([]geo.Point, cfg.Clusters)
	for c := range centers {
		centers[c] = cfg.Box.RandomPoint(rng)
	}
	pois := make([]POI, cfg.POIs)
	for j := range pois {
		cluster := rng.Intn(cfg.Clusters)
		cat := Category(j % int(numCategories))
		pois[j] = POI{
			ID:        j,
			Loc:       geo.Jitter(centers[cluster], cfg.ClusterSigmaDeg, rng),
			Category:  cat,
			Cluster:   cluster,
			PeakMonth: sampleIndexArr(monthProfile(cat), rng),
		}
	}
	// Zipf popularity weights per POI (rank = ID order shuffled).
	popRank := rng.Perm(cfg.POIs)
	popWeight := make([]float64, cfg.POIs)
	for j := range popWeight {
		popWeight[j] = 1 / math.Pow(float64(popRank[j]+1), cfg.ZipfS)
	}

	allPOIs := make([]int, cfg.POIs)
	for j := range allPOIs {
		allPOIs[j] = j
	}
	// POIs grouped by cluster for locality-biased sampling.
	clusterPOIs := make([][]int, cfg.Clusters)
	for j, p := range pois {
		clusterPOIs[p.Cluster] = append(clusterPOIs[p.Cluster], j)
	}
	for c, lst := range clusterPOIs {
		if len(lst) == 0 {
			// Guarantee every cluster has at least one POI so locality
			// sampling cannot dead-end.
			j := rng.Intn(cfg.POIs)
			clusterPOIs[c] = append(clusterPOIs[c], j)
		}
	}

	// 2. Users: home cluster plus an individual taste distribution over the
	// POI categories. Taste adds per-user low-rank preference structure
	// beyond geography — two neighbours may favour restaurants vs trails —
	// which collaborative models can factorize but pure graph proximity
	// cannot.
	// Home clusters are assigned blockwise in user-id order so the
	// Watts-Strogatz ring below wires mostly same-city friendships — the
	// geographic homophily of Figure 1(c): friends live near each other and
	// their check-ins co-locate. The ring's rewired fraction provides the
	// cross-city friendships whose influence only the social side
	// information can capture.
	homeCluster := make([]int, cfg.Users)
	taste := make([][numCategories]float64, cfg.Users)
	for u := range homeCluster {
		homeCluster[u] = u * cfg.Clusters / cfg.Users
		taste[u] = drawTaste(rng)
	}

	// 3. Social graph: small-world backbone + same-cluster homophily edges.
	var social *graph.Graph
	if deg := cfg.SocialDegree; deg >= 2 && deg < cfg.Users {
		social = graph.WattsStrogatz(cfg.Users, deg-deg%2, cfg.Rewire, rng)
	} else {
		social = graph.New(cfg.Users)
	}
	if cfg.HomophilyEdgeProb > 0 {
		for u := 0; u < cfg.Users; u++ {
			for v := u + 1; v < cfg.Users; v++ {
				if homeCluster[u] == homeCluster[v] && rng.Float64() < cfg.HomophilyEdgeProb {
					social.AddEdge(u, v)
				}
			}
		}
	}
	graph.EnsureMinDegree(social, 1, rng)

	// 4. Check-ins. Users are processed in random order; friend adoption
	// samples from check-ins generated so far, so later users imitate
	// earlier friends (a second pass lets early users imitate late ones).
	ds := &Dataset{Name: cfg.Name, NumUsers: cfg.Users, POIs: pois, Social: social}
	byUser := make([][]CheckIn, cfg.Users)
	hourProfiles := [numCategories][24]float64{}
	monthProfiles := [numCategories][12]float64{}
	for _, c := range Categories() {
		hourProfiles[c] = hourProfile(c)
		monthProfiles[c] = sharpen(monthProfile(c), cfg.SeasonalSharpness)
	}

	// Per-user POI weight: popularity × the user's taste for the POI's
	// category.
	userWeight := func(u, j int) float64 {
		return popWeight[j] * taste[u][pois[j].Category]
	}
	samplePOI := func(u int) int {
		// Friend adoption: visit the same place a friend visited, or — per
		// the social homophily + Tobler structure the paper builds on — a
		// place *near* it (same geographic cluster, chosen by the user's
		// own taste). Exact copies are the minority, as in real LBSNs where
		// friends co-locate in neighbourhoods more than in exact venues.
		if cfg.FriendAdoption > 0 && rng.Float64() < cfg.FriendAdoption {
			friends := slices.Clone(social.Neighbors(u))
			rng.Shuffle(len(friends), func(a, b int) { friends[a], friends[b] = friends[b], friends[a] })
			for _, f := range friends {
				if len(byUser[f]) == 0 {
					continue
				}
				adopted := byUser[f][rng.Intn(len(byUser[f]))].POI
				if rng.Float64() < exactAdoptFrac {
					return adopted
				}
				pool := clusterPOIs[pois[adopted].Cluster]
				return weightedPOI(pool, func(j int) float64 { return userWeight(u, j) }, rng)
			}
		}
		// Locality bias: home-cluster pool, else the full POI set.
		pool := clusterPOIs[homeCluster[u]]
		if rng.Float64() >= cfg.LocalityBias {
			pool = allPOIs
		}
		return weightedPOI(pool, func(j int) float64 { return userWeight(u, j) }, rng)
	}

	sampleMonth := func(j int) int {
		cat := pois[j].Category
		// Blend the POI's individual peak with its category profile. The
		// blend weight is scaled per category: restaurants are visited
		// year-round (the paper's §V-G observes food is the least seasonal
		// category and hardest to predict), while outdoor POIs live and die
		// with the seasons.
		if w := cfg.POISeasonality * categorySeasonality(cat); w > 0 && rng.Float64() < w {
			m := pois[j].PeakMonth + int(rng.NormFloat64()*1.2+0.5)
			return ((m % 12) + 12) % 12
		}
		return sampleIndex(monthProfiles[cat][:], rng)
	}

	for pass := 0; pass < 2; pass++ {
		order := rng.Perm(cfg.Users)
		for _, u := range order {
			n := poissonLike(cfg.CheckInsPerUser/2, rng) // half the budget per pass
			for c := 0; c < n; c++ {
				j := samplePOI(u)
				cat := pois[j].Category
				month := sampleMonth(j)
				hour := sampleIndex(hourProfiles[cat][:], rng)
				week := weekOfMonth(month, rng)
				ci := CheckIn{User: u, POI: j, Month: month, Week: week, Hour: hour}
				byUser[u] = append(byUser[u], ci)
			}
		}
	}
	for _, lst := range byUser {
		ds.CheckIns = append(ds.CheckIns, lst...)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// MustGenerate is Generate for callers with static configs where an error is
// a programming bug (tests, benchmarks, examples).
func MustGenerate(cfg GenConfig) *Dataset {
	ds, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

// MustPreset generates a preset dataset by name, panicking on unknown names.
func MustPreset(name string, seed int64) *Dataset {
	cfg, err := NewPreset(name, seed)
	if err != nil {
		panic(err)
	}
	return MustGenerate(cfg)
}
