// Package experiments contains one runner per table and figure of the
// paper's evaluation (§VI), regenerating the same rows and series from
// this repository's substrates. DESIGN.md maps each experiment to its
// runner; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"slices"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/trace"
)

// Corridor segment IDs for the testbed corridor (a 2 km motorway feeding
// an 800 m motorway link), inserted into the synthetic network like the
// paper's two extracted real roads.
const (
	CorridorMotorwayID geo.SegmentID = 900001
	CorridorLinkID     geo.SegmentID = 900002
)

// ScenarioConfig sizes the model-evaluation scenario.
type ScenarioConfig struct {
	// Cars is the corridor fleet size (each drives motorway -> link
	// once) and the background fleet size. Values <= 0 select 600.
	Cars int
	// Seed drives all randomness.
	Seed int64
	// NetworkScale scales the synthetic Shenzhen network. Values <= 0
	// select 0.02 (test-sized); 1.0 is the full Table V network.
	NetworkScale float64
	// AggressiveFraction of drivers with anomalous tendencies. Values
	// <= 0 select 0.35 (the paper's data has ~35% abnormal samples).
	AggressiveFraction float64
	// SampleInterval for GPS fixes. Values <= 0 select 5 s (the paper's
	// trajectory sparsity).
	SampleInterval time.Duration
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Cars <= 0 {
		c.Cars = 600
	}
	if c.NetworkScale <= 0 {
		c.NetworkScale = 0.02
	}
	if c.AggressiveFraction <= 0 {
		c.AggressiveFraction = 0.35
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 5 * time.Second
	}
	return c
}

// Scenario is the trained three-model comparison setup shared by the
// Figure 7 / Figure 8 / Table IV experiments.
type Scenario struct {
	Net      *geo.Network
	Train    []trace.Record
	Test     []trace.Record
	TestLink []trace.Record
	Labeler  *core.Labeler

	Centralized *core.Centralized
	Upstream    *core.AD3 // motorway RSU model
	AD3         *core.AD3 // motorway-link RSU standalone model
	CAD3        *core.CAD3

	// Summaries holds the evaluation priors: the upstream model replayed
	// over the test cars' motorway records, standing in for the online
	// CO-DATA stream.
	Summaries map[trace.CarID]core.PredictionSummary
}

// BuildScenario generates the dataset (corridor trips + city-wide
// background), derives and filters records, splits by car, and trains the
// three models.
func BuildScenario(cfg ScenarioConfig) (*Scenario, error) {
	cfg = cfg.withDefaults()
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: cfg.NetworkScale, Seed: cfg.Seed + 1000})
	if err != nil {
		return nil, fmt.Errorf("scenario network: %w", err)
	}
	mw, link, err := AddCorridor(net)
	if err != nil {
		return nil, fmt.Errorf("scenario corridor: %w", err)
	}

	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Network:            net,
		Cars:               cfg.Cars,
		Seed:               cfg.Seed,
		AggressiveFraction: cfg.AggressiveFraction,
		SampleInterval:     cfg.SampleInterval,
	})
	if err != nil {
		return nil, err
	}
	parts := make([][]trace.TrajectoryPoint, 0, cfg.Cars+1)
	var tripID trace.TripID = 1
	for c := 1; c <= cfg.Cars; c++ {
		day := 1 + (c % 28)
		hour := []int{8, 12, 18, 22}[c%4]
		_, p, err := gen.GenerateTripOn(trace.CarID(c), tripID, []geo.SegmentID{mw.ID, link.ID}, day, hour)
		if err != nil {
			return nil, err
		}
		tripID++
		parts = append(parts, p)
	}

	bg, err := trace.NewGenerator(trace.GeneratorConfig{
		Network:            net,
		Cars:               cfg.Cars,
		Seed:               cfg.Seed + 1,
		TripsPerCar:        4,
		AggressiveFraction: cfg.AggressiveFraction,
		SampleInterval:     cfg.SampleInterval,
	})
	if err != nil {
		return nil, err
	}
	bgDS, err := bg.Generate()
	if err != nil {
		return nil, err
	}
	for i := range bgDS.Trajectories {
		bgDS.Trajectories[i].Car += trace.CarID(cfg.Cars)
		bgDS.Trajectories[i].Trip += tripID
	}
	parts = append(parts, bgDS.Trajectories)

	recs, err := trace.DeriveRecords(net, slices.Concat(parts...), trace.DeriveOptions{})
	if err != nil {
		return nil, err
	}
	clean, _ := trace.FilterRecords(recs)
	split := trace.SplitByCar(clean, 0.8, cfg.Seed)

	labeler, err := core.TrainLabeler(split.Train, 0)
	if err != nil {
		return nil, err
	}
	// Each road type is filtered out of each half once. The models
	// filter what they are handed again, which copies nothing when their
	// types come as contiguous runs (trace.RecordsOfType).
	mwTrain := trace.RecordsOfType(split.Train, geo.Motorway)
	linkTrain := trace.RecordsOfType(split.Train, geo.MotorwayLink)
	mwTest := trace.RecordsOfType(split.Test, geo.Motorway)
	sc := &Scenario{
		Net:      net,
		Train:    split.Train,
		Test:     split.Test,
		TestLink: trace.RecordsOfType(split.Test, geo.MotorwayLink),
		Labeler:  labeler,
	}
	sc.Centralized = core.NewCentralized()
	if err := sc.Centralized.Train(split.Train, labeler); err != nil {
		return nil, err
	}
	sc.Upstream = core.NewAD3(geo.Motorway)
	if err := sc.Upstream.Train(mwTrain, labeler); err != nil {
		return nil, err
	}
	sc.AD3 = core.NewAD3(geo.MotorwayLink)
	if err := sc.AD3.Train(linkTrain, labeler); err != nil {
		return nil, err
	}
	sc.CAD3 = core.NewCAD3(geo.MotorwayLink, core.CAD3Config{SummaryRoad: CorridorMotorwayID})
	if err := sc.CAD3.Train(slices.Concat(linkTrain, mwTrain), labeler, sc.Upstream); err != nil {
		return nil, err
	}
	// Evaluation priors come from the corridor motorway only — the road
	// the test vehicles actually drove before handing over to the link
	// RSU (the online CO-DATA stream's content).
	sc.Summaries, err = core.BuildTrainingSummaries(corridorMotorway(mwTest), sc.Upstream)
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// corridorMotorway returns the records on the corridor's motorway
// segment, in order: the road whose history the link RSU's CO-DATA
// summaries carry.
func corridorMotorway(recs []trace.Record) []trace.Record {
	var out []trace.Record
	for _, r := range recs {
		if r.Road == CorridorMotorwayID {
			out = append(out, r)
		}
	}
	return out
}

// AddCorridor inserts the testbed corridor into a network and returns the
// motorway and link segments.
func AddCorridor(net *geo.Network) (*geo.Segment, *geo.Segment, error) {
	start := geo.Destination(geo.ShenzhenCenter, 45, 3000)
	mwEnd := geo.Destination(start, 90, 2000)
	mw, err := geo.NewSegment(CorridorMotorwayID, geo.Motorway, "corridor-motorway",
		[]geo.Point{start, geo.Midpoint(start, mwEnd), mwEnd})
	if err != nil {
		return nil, nil, err
	}
	lkEnd := geo.Destination(mwEnd, 135, 800)
	lk, err := geo.NewSegment(CorridorLinkID, geo.MotorwayLink, "corridor-link",
		[]geo.Point{mwEnd, geo.Midpoint(mwEnd, lkEnd), lkEnd})
	if err != nil {
		return nil, nil, err
	}
	if err := net.AddSegment(mw); err != nil {
		return nil, nil, err
	}
	if err := net.AddSegment(lk); err != nil {
		return nil, nil, err
	}
	if err := net.Connect(mw.ID, lk.ID); err != nil {
		return nil, nil, err
	}
	return mw, lk, nil
}
