package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"cad3/internal/geo"
)

// Errors returned by the generator.
var (
	ErrNoNetwork = errors.New("trace: generator requires a road network")
	ErrNoCars    = errors.New("trace: generator requires at least one car")
)

// AnomalyKind classifies an injected abnormal-driving episode. The paper's
// abstract names the three leading causes of fatal highway accidents:
// speeding, slowing down, and sudden acceleration.
type AnomalyKind int

// Injected anomaly kinds.
const (
	Speeding AnomalyKind = iota + 1
	Slowing
	SuddenAcceleration
)

// String implements fmt.Stringer.
func (k AnomalyKind) String() string {
	switch k {
	case Speeding:
		return "speeding"
	case Slowing:
		return "slowing"
	case SuddenAcceleration:
		return "sudden_acceleration"
	default:
		return "anomaly"
	}
}

// GeneratorConfig configures the synthetic dataset generator.
type GeneratorConfig struct {
	// Network is the road network to drive over. Required.
	Network *geo.Network
	// Seed makes generation deterministic.
	Seed int64
	// Cars is the number of vehicles. Required (> 0).
	Cars int
	// TripsPerCar is the mean number of trips per car over the month.
	// Values <= 0 select 4.
	TripsPerCar float64
	// Days restricts trips to days 1..Days of July 2016. Values <= 0 or
	// > 31 select 31.
	Days int
	// SampleInterval is the GPS fix interval. Values <= 0 select 1 s.
	SampleInterval time.Duration
	// AggressiveFraction is the fraction of drivers with anomalous
	// tendencies. Negative values select 0.30.
	AggressiveFraction float64
	// EpisodeProb is the per-segment probability that an aggressive
	// driver starts an anomalous episode. Values <= 0 select 0.55.
	EpisodeProb float64
	// EpisodeLenMean is the mean episode length in samples. Values <= 0
	// select 10.
	EpisodeLenMean int
	// ErrorRate is the fraction of trajectory points corrupted with
	// sensor errors (GPS teleports), later removed by the filter.
	// Negative values select 0.01.
	ErrorRate float64
	// RouteSegments is the number of road segments per trip. Values <= 0
	// select 3.
	RouteSegments int
	// GPSSigmaM is the GPS noise standard deviation in meters. Values
	// < 0 select 4.
	GPSSigmaM float64
	// Profile is the speed profile; the zero value selects
	// DefaultSpeedProfile.
	Profile SpeedProfile
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.TripsPerCar <= 0 {
		c.TripsPerCar = 4
	}
	if c.Days <= 0 || c.Days > 31 {
		c.Days = 31
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = time.Second
	}
	if c.AggressiveFraction < 0 {
		c.AggressiveFraction = 0.30
	}
	if c.AggressiveFraction == 0 && c.EpisodeProb == 0 {
		c.AggressiveFraction = 0.30
	}
	if c.EpisodeProb <= 0 {
		c.EpisodeProb = 0.55
	}
	if c.EpisodeLenMean <= 0 {
		c.EpisodeLenMean = 10
	}
	if c.ErrorRate < 0 {
		c.ErrorRate = 0.01
	}
	if c.RouteSegments <= 0 {
		c.RouteSegments = 3
	}
	if c.GPSSigmaM < 0 {
		c.GPSSigmaM = 4
	}
	if c.Profile == (SpeedProfile{}) {
		c.Profile = DefaultSpeedProfile()
	}
	return c
}

// Generator produces synthetic trips and trajectories.
type Generator struct {
	cfg GeneratorConfig
	rng *rand.Rand
	// aggressive[i] marks car i (0-based) as an anomalous-tendency driver;
	// biasK[i] is the driver's persistent speed bias in sigma units.
	aggressive []bool
	biasK      []float64
	segments   []*geo.Segment
	segWeights []float64 // cumulative density weights for start selection
}

// NewGenerator validates the configuration and prepares a generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.Network == nil {
		return nil, ErrNoNetwork
	}
	if cfg.Cars <= 0 {
		return nil, ErrNoCars
	}
	if cfg.Network.SegmentCount() == 0 {
		return nil, fmt.Errorf("trace: network has no segments")
	}

	g := &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	g.aggressive = make([]bool, cfg.Cars)
	g.biasK = make([]float64, cfg.Cars)
	for i := range g.aggressive {
		g.aggressive[i] = g.rng.Float64() < cfg.AggressiveFraction
		// Drivers have persistent habits: anomalous-tendency drivers sit
		// 0.8-1.8 sigma off the road's normal speed (habitual speeding or
		// crawling, sign fixed per driver) even outside acute episodes;
		// ordinary drivers stay within ~0.3 sigma of it. This persistence
		// is what makes driver-awareness (the CO-DATA summaries) carry
		// signal across the motorway -> link handover.
		sign := 1.0
		if g.rng.Float64() < 0.5 {
			sign = -1
		}
		if g.aggressive[i] {
			g.biasK[i] = sign * (1.2 + g.rng.Float64())
		} else {
			g.biasK[i] = sign * 0.3 * g.rng.Float64()
		}
	}

	// Start-segment selection weighted by the Table V density share of
	// the segment's road type.
	density := make(map[geo.RoadType]float64)
	for _, st := range geo.ShenzhenRoadStats() {
		density[st.Type] = st.DensityShare
	}
	g.segments = cfg.Network.AllSegments()
	g.segWeights = make([]float64, len(g.segments))
	var cum float64
	for i, s := range g.segments {
		w := density[s.Type]
		if w <= 0 {
			w = 0.01
		}
		cum += w
		g.segWeights[i] = cum
	}
	return g, nil
}

// Aggressive reports whether the given car is an anomalous-tendency driver
// (generator ground truth).
func (g *Generator) Aggressive(car CarID) bool {
	idx := int(car) - 1
	return idx >= 0 && idx < len(g.aggressive) && g.aggressive[idx]
}

// Generate produces the full dataset: trips, raw trajectories (with
// injected sensor errors), and nothing else — feature derivation and
// filtering are separate pipeline stages (see DeriveRecords and
// FilterRecords), mirroring the paper's offline preprocessing flow.
func (g *Generator) Generate() (*Dataset, error) {
	ds := &Dataset{}
	var parts [][]TrajectoryPoint // each trip's points, joined once at the end
	var nextTrip TripID = 1
	for car := 1; car <= g.cfg.Cars; car++ {
		nTrips := poissonAtLeast1(g.rng, g.cfg.TripsPerCar)
		for t := 0; t < nTrips; t++ {
			trip, points := g.generateTrip(CarID(car), nextTrip)
			nextTrip++
			ds.Trips = append(ds.Trips, trip)
			parts = append(parts, points)
		}
	}
	ds.Trajectories = slices.Concat(parts...)
	return ds, nil
}

// GenerateTripOn generates a single trip for the given car along an
// explicit route, used by the mesoscopic (driver-trip) experiments to
// script the motorway -> motorway-link handover scenario.
func (g *Generator) GenerateTripOn(car CarID, trip TripID, route []geo.SegmentID, day, hour int) (Trip, []TrajectoryPoint, error) {
	segs := make([]*geo.Segment, 0, len(route))
	for _, id := range route {
		s := g.cfg.Network.Segment(id)
		if s == nil {
			return Trip{}, nil, fmt.Errorf("trace: unknown segment %d in route", id)
		}
		segs = append(segs, s)
	}
	if len(segs) == 0 {
		return Trip{}, nil, fmt.Errorf("trace: empty route")
	}
	start := time.Date(2016, time.July, day, hour, g.rng.Intn(60), g.rng.Intn(60), 0, time.UTC)
	t, pts := g.drive(car, trip, segs, start)
	return t, pts, nil
}

func (g *Generator) generateTrip(car CarID, trip TripID) (Trip, []TrajectoryPoint) {
	route := g.pickRoute()
	day := 1 + g.rng.Intn(g.cfg.Days)
	hour := sampleHour(g.rng)
	start := time.Date(2016, time.July, day, hour, g.rng.Intn(60), g.rng.Intn(60), 0, time.UTC)
	return g.drive(car, trip, route, start)
}

func (g *Generator) pickRoute() []*geo.Segment {
	route := make([]*geo.Segment, 0, g.cfg.RouteSegments)
	cur := g.pickStartSegment()
	route = append(route, cur)
	for len(route) < g.cfg.RouteSegments {
		succ := g.cfg.Network.Successors(cur.ID)
		if len(succ) > 0 {
			cur = g.cfg.Network.Segment(succ[g.rng.Intn(len(succ))])
		} else {
			cur = g.pickStartSegment()
		}
		route = append(route, cur)
	}
	return route
}

func (g *Generator) pickStartSegment() *geo.Segment {
	total := g.segWeights[len(g.segWeights)-1]
	x := g.rng.Float64() * total
	lo, hi := 0, len(g.segWeights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.segWeights[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.segments[lo]
}

// episode tracks an in-progress anomalous-driving episode.
type episode struct {
	kind      AnomalyKind
	remaining int
	severity  float64 // sigma multiplier, 1.5..3
}

// drive simulates the vehicle along the route, emitting GPS fixes.
func (g *Generator) drive(car CarID, trip TripID, route []*geo.Segment, start time.Time) (Trip, []TrajectoryPoint) {
	dt := g.cfg.SampleInterval.Seconds()
	now := start
	var points []TrajectoryPoint
	var mileage float64
	aggressive := g.Aggressive(car)

	// Current speed in km/h, initialised near the first segment's mean.
	weekend := Weekend(start.Day())
	mean, std := g.cfg.Profile.MeanStd(route[0].Type, start.Hour(), weekend)
	speed := math.Max(0, mean+g.rng.NormFloat64()*std*0.5)

	var ep *episode
	for _, seg := range route {
		var along float64
		// Fresh chance of an anomalous episode at each segment entry.
		if aggressive && ep == nil && g.rng.Float64() < g.cfg.EpisodeProb {
			ep = g.newEpisode()
		}
		for along < seg.LengthMeters() {
			weekend = Weekend(now.Day())
			mean, std = g.cfg.Profile.MeanStd(seg.Type, now.Hour(), weekend)

			bias := g.driverBias(car)
			target := mean + bias*std + g.rng.NormFloat64()*std*0.6
			anomalous := false
			if ep != nil {
				anomalous = true
				switch ep.kind {
				case Speeding:
					target = mean + ep.severity*std
				case Slowing:
					target = math.Max(0, mean-ep.severity*std)
				case SuddenAcceleration:
					// Alternate hard accelerate / hard brake around the mean.
					if ep.remaining%2 == 0 {
						target = mean + ep.severity*std
					} else {
						target = math.Max(0, mean-ep.severity*std*0.8)
					}
				}
				ep.remaining--
				if ep.remaining <= 0 {
					ep = nil
				}
			}

			// First-order response toward the target with bounded accel.
			maxAccel := 8.0 // km/h per second, ordinary driving
			if anomalous {
				maxAccel = 20
			}
			delta := target - speed
			delta = math.Max(-maxAccel*dt, math.Min(maxAccel*dt, delta))
			speed = math.Max(0, speed+delta)

			stepM := speed / 3.6 * dt
			along += stepM
			mileage += stepM
			frac := along / seg.LengthMeters()
			pos := seg.PointAt(frac)
			if g.cfg.GPSSigmaM > 0 {
				pos = geo.Destination(pos, g.rng.Float64()*360, math.Abs(g.rng.NormFloat64())*g.cfg.GPSSigmaM)
			}
			// Sensor-error injection: GPS teleport.
			if g.rng.Float64() < g.cfg.ErrorRate {
				pos = geo.Destination(pos, g.rng.Float64()*360, 3000+g.rng.Float64()*5000)
			}
			now = now.Add(g.cfg.SampleInterval)
			points = append(points, TrajectoryPoint{
				Car:        car,
				Trip:       trip,
				Lon:        pos.Lon,
				Lat:        pos.Lat,
				GPSTime:    now,
				AcMileageM: mileage,
				SegmentID:  seg.ID,
				Anomalous:  anomalous,
			})
			if len(points) > 100_000 {
				// Safety valve against pathological slow crawls.
				break
			}
		}
	}

	first, last := route[0].Start(), route[len(route)-1].End()
	tr := Trip{
		ID:        trip,
		Car:       car,
		StartTime: start,
		StopTime:  now,
		StartLon:  first.Lon,
		StartLat:  first.Lat,
		StopLon:   last.Lon,
		StopLat:   last.Lat,
		MileageM:  mileage,
		FuelML:    mileage * 0.08, // ~8 L/100 km
		PeriodS:   now.Sub(start).Seconds(),
	}
	return tr, points
}

func (g *Generator) newEpisode() *episode {
	kinds := []AnomalyKind{Speeding, Slowing, SuddenAcceleration}
	length := 1 + int(float64(g.cfg.EpisodeLenMean)*(0.5+g.rng.Float64()))
	return &episode{
		kind:      kinds[g.rng.Intn(len(kinds))],
		remaining: length,
		severity:  2.0 + g.rng.Float64()*1.5,
	}
}

// driverBias returns the car's persistent speed bias in sigma units.
func (g *Generator) driverBias(car CarID) float64 {
	idx := int(car) - 1
	if idx < 0 || idx >= len(g.biasK) {
		return 0
	}
	return g.biasK[idx]
}

// poissonAtLeast1 draws from a Poisson-like distribution with the given
// mean, clamped to >= 1 (every car takes at least one trip).
func poissonAtLeast1(rng *rand.Rand, mean float64) int {
	// Knuth's algorithm; mean values here are small.
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		k++
		p *= rng.Float64()
		if p <= l {
			break
		}
	}
	if k-1 < 1 {
		return 1
	}
	return k - 1
}

func sampleHour(rng *rand.Rand) int {
	w := TripStartWeights()
	var total float64
	for _, x := range w {
		total += x
	}
	x := rng.Float64() * total
	for h, wt := range w {
		x -= wt
		if x <= 0 {
			return h
		}
	}
	return 23
}
