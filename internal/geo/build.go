package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// RoadClassStats carries the aggregate per-road-type statistics that the
// paper reports for Shenzhen's network (Table V). The synthetic network
// generator samples road lengths to match these.
type RoadClassStats struct {
	Type RoadType
	// DensityShare is the fraction of vehicle observations on this road
	// type (the "Density" column of Table V).
	DensityShare float64
	// Count is the number of frequently-used roads of this type.
	Count int
	// MeanLengthM and StdLengthM describe the road length distribution.
	MeanLengthM float64
	StdLengthM  float64
}

// ShenzhenRoadStats returns the Table V statistics verbatim. These drive
// both the synthetic network generation and the RSU-planning reproduction.
func ShenzhenRoadStats() []RoadClassStats {
	return []RoadClassStats{
		{Type: Motorway, DensityShare: 0.077, Count: 435, MeanLengthM: 3357, StdLengthM: 7652},
		{Type: MotorwayLink, DensityShare: 0.028, Count: 159, MeanLengthM: 596, StdLengthM: 1626},
		{Type: Trunk, DensityShare: 0.116, Count: 656, MeanLengthM: 1622, StdLengthM: 5520},
		{Type: TrunkLink, DensityShare: 0.044, Count: 247, MeanLengthM: 339, StdLengthM: 1931},
		{Type: Primary, DensityShare: 0.252, Count: 1431, MeanLengthM: 668, StdLengthM: 2939},
		{Type: PrimaryLink, DensityShare: 0.034, Count: 191, MeanLengthM: 211, StdLengthM: 169},
		{Type: Secondary, DensityShare: 0.201, Count: 1140, MeanLengthM: 561, StdLengthM: 2337},
		{Type: SecondaryLink, DensityShare: 0.003, Count: 36, MeanLengthM: 186, StdLengthM: 156},
		{Type: Tertiary, DensityShare: 0.188, Count: 1064, MeanLengthM: 522, StdLengthM: 2592},
		{Type: Residential, DensityShare: 0.053, Count: 303, MeanLengthM: 334, StdLengthM: 1470},
	}
}

// ShenzhenCenter is the city center used as the synthetic network origin.
var ShenzhenCenter = Point{Lat: 22.5431, Lon: 114.0579}

// BuildConfig configures the synthetic network generator.
type BuildConfig struct {
	// Center of the generated city. Zero value selects ShenzhenCenter.
	Center Point
	// Scale multiplies the per-class road counts; 1.0 reproduces the full
	// Table V network (~5,700 roads), 0.05 a small test network. Values
	// <= 0 select 1.0.
	Scale float64
	// ExtentMeters is the half-width of the square the roads are scattered
	// over. Values <= 0 select 25,000 (Shenzhen is roughly 50 km wide).
	ExtentMeters float64
	// Seed for the deterministic generator.
	Seed int64
	// Stats overrides the per-class statistics; nil selects
	// ShenzhenRoadStats.
	Stats []RoadClassStats
}

func (c BuildConfig) withDefaults() BuildConfig {
	if c.Center == (Point{}) {
		c.Center = ShenzhenCenter
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.ExtentMeters <= 0 {
		c.ExtentMeters = 25_000
	}
	if c.Stats == nil {
		c.Stats = ShenzhenRoadStats()
	}
	return c
}

// BuildNetwork generates a synthetic road network whose per-class counts
// and length distributions match the configured statistics. Roads are laid
// out on a jittered grid orientation; every motorway is connected to a
// nearby motorway link (when one exists) so that motorway -> motorway-link
// handovers — the paper's microscopic use case — always have a route.
func BuildNetwork(cfg BuildConfig) (*Network, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := NewNetwork(0)

	var nextID SegmentID = 1
	for _, st := range cfg.Stats {
		count := int(math.Round(float64(st.Count) * cfg.Scale))
		if count < 1 {
			count = 1
		}
		for i := 0; i < count; i++ {
			length := sampleLength(rng, st.MeanLengthM, st.StdLengthM)
			seg, err := buildRoad(rng, nextID, st.Type, cfg, length)
			if err != nil {
				return nil, fmt.Errorf("build %s road: %w", st.Type, err)
			}
			if err := net.AddSegment(seg); err != nil {
				return nil, err
			}
			nextID++
		}
	}
	connectLinks(net)
	return net, nil
}

// sampleLength draws a road length from a lognormal distribution matched to
// the given mean/std (Table V distributions are heavily right-skewed: std
// often exceeds the mean, which a lognormal captures and a Gaussian cannot
// without producing negative lengths).
func sampleLength(rng *rand.Rand, mean, std float64) float64 {
	if mean <= 0 {
		return 100
	}
	// Lognormal parameters from mean m and std s:
	// sigma^2 = ln(1 + (s/m)^2), mu = ln(m) - sigma^2/2.
	ratio := std / mean
	sigma2 := math.Log(1 + ratio*ratio)
	mu := math.Log(mean) - sigma2/2
	l := math.Exp(mu + math.Sqrt(sigma2)*rng.NormFloat64())
	return math.Max(50, math.Min(l, mean+6*std))
}

func buildRoad(rng *rand.Rand, id SegmentID, t RoadType, cfg BuildConfig, lengthM float64) (*Segment, error) {
	// Random start inside the extent, grid-ish bearing with jitter.
	dx := (rng.Float64()*2 - 1) * cfg.ExtentMeters
	dy := (rng.Float64()*2 - 1) * cfg.ExtentMeters
	start := Destination(Destination(cfg.Center, 90, dx), 0, dy)
	bearing := float64(rng.Intn(4))*90 + rng.NormFloat64()*10

	// Polyline with mild curvature: one vertex every <= 250 m.
	nLegs := int(math.Ceil(lengthM / 250))
	if nLegs < 1 {
		nLegs = 1
	}
	legLen := lengthM / float64(nLegs)
	pts := make([]Point, 0, nLegs+1)
	pts = append(pts, start)
	cur := start
	for i := 0; i < nLegs; i++ {
		bearing += rng.NormFloat64() * 4
		cur = Destination(cur, bearing, legLen)
		pts = append(pts, cur)
	}
	return NewSegment(id, t, fmt.Sprintf("%s-%d", t, id), pts)
}

// connectLinks wires every motorway to its nearest motorway link (and trunk
// to trunk link, etc.) so the route generator can produce the paper's
// handover scenario. Links connect back to the nearest main road of the
// same family, forming small subgraphs.
func connectLinks(net *Network) {
	families := []struct{ main, link RoadType }{
		{Motorway, MotorwayLink},
		{Trunk, TrunkLink},
		{Primary, PrimaryLink},
		{Secondary, SecondaryLink},
	}
	for _, f := range families {
		mains := net.SegmentsOfType(f.main)
		links := net.SegmentsOfType(f.link)
		if len(mains) == 0 || len(links) == 0 {
			continue
		}
		for _, m := range mains {
			l := nearestSegment(links, m.End())
			_ = net.Connect(m.ID, l.ID)
		}
		for _, l := range links {
			m := nearestSegment(mains, l.End())
			_ = net.Connect(l.ID, m.ID)
		}
	}
}

// nearestSegment returns the candidate whose start is closest to p, the
// first of equals. Like Segment.Project it computes metres only for a
// haversine h at or below the best one's (the haversine is symmetric, bit
// for bit, so measuring from p is measuring to it).
func nearestSegment(candidates []*Segment, p Point) *Segment {
	cosP := math.Cos(p.Lat * degToRad)
	best := candidates[0]
	bestH := haversine(p, best.Start(), cosP)
	bestD := arcMeters(bestH)
	for _, s := range candidates[1:] {
		if h := haversine(p, s.Start(), cosP); h <= bestH {
			if d := arcMeters(h); d < bestD {
				best, bestH, bestD = s, h, d
			}
		}
	}
	return best
}
