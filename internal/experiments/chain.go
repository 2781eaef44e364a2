package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/rsu"
	"cad3/internal/stream"
)

// The paper's mesoscopic mechanism is recursive: "upon vehicle handover,
// the former RSU passes a prediction summary to the next, the process
// which is carried on" (§I). The chain experiment verifies the carry-on:
// vehicles drive a route of several road classes, each covered by its own
// RSU; every boundary forwards the local summary to the next RSU, whose
// collaborative detector fuses it — so driver-awareness survives the whole
// trip, not just one handover.

// ChainConfig configures the multi-hop run.
type ChainConfig struct {
	// Hops is the number of chained RSUs. Values <= 0 select 4.
	Hops int
	// Vehicles on the route. Values <= 0 select 16.
	Vehicles int
	// AggressiveFraction of drivers. Values <= 0 select 0.4.
	AggressiveFraction float64
	// SegmentMeters per hop. Values <= 0 select 700.
	SegmentMeters float64
	// Seed drives driver behaviour.
	Seed int64
}

func (c ChainConfig) withDefaults() ChainConfig {
	if c.Hops <= 0 {
		c.Hops = 4
	}
	if c.Vehicles <= 0 {
		c.Vehicles = 16
	}
	if c.AggressiveFraction <= 0 {
		c.AggressiveFraction = 0.4
	}
	if c.SegmentMeters <= 0 {
		c.SegmentMeters = 700
	}
	return c
}

// ChainHop summarises one RSU of the chain.
type ChainHop struct {
	Name              string
	RoadType          geo.RoadType
	Records           int64
	Warnings          int64
	SummariesReceived int64
	SummariesSent     int64
	PriorHits         int64
}

// ChainResult summarises the run.
type ChainResult struct {
	Hops      []ChainHop
	Vehicles  int
	Steps     int
	Handovers int64
	// Warn rates per driver class at the FINAL hop — where the summary
	// has been carried across every boundary.
	FinalAggressiveWarnRate float64
	FinalNormalWarnRate     float64
	Aggressive              int
}

// chainRoadTypes cycles through road classes in decreasing speed order.
var chainRoadTypes = []geo.RoadType{
	geo.Motorway, geo.MotorwayLink, geo.Primary, geo.Secondary,
	geo.Tertiary, geo.Residential,
}

// RunChainMobility builds an n-hop road chain with one RSU per segment
// (hop 0 standalone AD3, every later hop a CAD3 whose upstream is the
// previous hop) and drives a fleet down it.
func RunChainMobility(sc *Scenario, cfg ChainConfig) (*ChainResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Hops > len(chainRoadTypes) {
		cfg.Hops = len(chainRoadTypes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Fresh chain network, independent of the scenario's.
	net := geo.NewNetwork(0)
	segIDs := make([]geo.SegmentID, cfg.Hops)
	cursor := geo.Destination(geo.ShenzhenCenter, 10, 8000)
	for i := 0; i < cfg.Hops; i++ {
		id := geo.SegmentID(800001 + i)
		end := geo.Destination(cursor, 90, cfg.SegmentMeters)
		seg, err := geo.NewSegment(id, chainRoadTypes[i], fmt.Sprintf("chain-%d", i),
			[]geo.Point{cursor, end})
		if err != nil {
			return nil, err
		}
		if err := net.AddSegment(seg); err != nil {
			return nil, err
		}
		if i > 0 {
			if err := net.Connect(segIDs[i-1], id); err != nil {
				return nil, err
			}
		}
		segIDs[i] = id
		cursor = end
	}

	// Detectors: hop 0 standalone; later hops collaborative with the
	// previous hop as upstream — the paper's carried-on summary chain.
	detectors := make([]core.Detector, cfg.Hops)
	upstreams := make([]*core.AD3, cfg.Hops)
	for i := 0; i < cfg.Hops; i++ {
		ad3 := core.NewAD3(chainRoadTypes[i])
		if err := ad3.Train(sc.Train, sc.Labeler); err != nil {
			return nil, fmt.Errorf("chain hop %d AD3: %w", i, err)
		}
		upstreams[i] = ad3
		if i == 0 {
			detectors[i] = ad3
			continue
		}
		cad := core.NewCAD3(chainRoadTypes[i], core.CAD3Config{})
		if err := cad.Train(sc.Train, sc.Labeler, upstreams[i-1]); err != nil {
			return nil, fmt.Errorf("chain hop %d CAD3: %w", i, err)
		}
		detectors[i] = cad
	}

	// One broker + node per hop, wired as a cluster.
	configs := make([]rsu.Config, cfg.Hops)
	for i := range configs {
		configs[i] = rsu.Config{
			Name:     fmt.Sprintf("hop-%d (%s)", i, chainRoadTypes[i]),
			Road:     segIDs[i],
			Detector: detectors[i],
			Client:   stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{})),
		}
	}
	cluster, err := rsu.NewCluster(net, configs)
	if err != nil {
		return nil, err
	}
	run, err := driveFleet(net, cluster, segIDs, fleetConfig{
		vehicles: cfg.Vehicles, aggressiveFraction: cfg.AggressiveFraction,
		step: time.Second, maxSteps: 20_000,
	}, rng)
	if err != nil {
		return nil, err
	}

	res := &ChainResult{Vehicles: cfg.Vehicles, Steps: run.steps, Handovers: run.handovers}
	stats := cluster.Stats()
	for i := 0; i < cfg.Hops; i++ {
		st := stats[configs[i].Name]
		res.Hops = append(res.Hops, ChainHop{
			Name:              configs[i].Name,
			RoadType:          chainRoadTypes[i],
			Records:           st.Records,
			Warnings:          st.Warnings,
			SummariesReceived: st.SummariesReceived,
			SummariesSent:     st.SummariesSent,
			PriorHits:         st.PriorHits,
		})
	}
	cr := run.rates(cfg.Hops - 1)
	res.Aggressive = cr.aggressive
	res.FinalAggressiveWarnRate, res.FinalNormalWarnRate = cr.aggRate, cr.normRate
	return res, nil
}

// FormatChain renders the multi-hop run.
func FormatChain(res *ChainResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d vehicles (%d aggressive), %d steps, %d handovers\n",
		res.Vehicles, res.Aggressive, res.Steps, res.Handovers)
	fmt.Fprintf(&sb, "%-24s %8s %8s %10s %10s %10s\n",
		"hop", "records", "warns", "summ-rx", "summ-tx", "prior-hit")
	for _, h := range res.Hops {
		fmt.Fprintf(&sb, "%-24s %8d %8d %10d %10d %10d\n",
			h.Name, h.Records, h.Warnings, h.SummariesReceived, h.SummariesSent, h.PriorHits)
	}
	fmt.Fprintf(&sb, "final-hop warn rate: aggressive %.2f vs normal %.2f\n",
		res.FinalAggressiveWarnRate, res.FinalNormalWarnRate)
	return sb.String()
}
