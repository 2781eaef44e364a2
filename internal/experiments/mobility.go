package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cad3/internal/geo"
	"cad3/internal/rsu"
	"cad3/internal/stream"
)

// The live-mobility experiment closes the loop the paper only emulates:
// vehicles physically move along the corridor geometry (geo.Journey),
// their telemetry goes to whichever RSU covers their current segment, and
// crossing the motorway -> link boundary triggers the real handover path
// (summary over CO-DATA, prior used by the link RSU's CAD3). The paper
// approximates this by migrating Kafka producers between brokers.

// MobilityConfig configures the run.
type MobilityConfig struct {
	// Vehicles on the corridor. Values <= 0 select 24.
	Vehicles int
	// AggressiveFraction of drivers. Values <= 0 select 0.4.
	AggressiveFraction float64
	// StepInterval is the telemetry period. Values <= 0 select 1 s.
	StepInterval time.Duration
	// Seed drives driver behaviour.
	Seed int64
}

func (c MobilityConfig) withDefaults() MobilityConfig {
	if c.Vehicles <= 0 {
		c.Vehicles = 24
	}
	if c.AggressiveFraction <= 0 {
		c.AggressiveFraction = 0.4
	}
	if c.StepInterval <= 0 {
		c.StepInterval = time.Second
	}
	return c
}

// MobilityResult summarises the run.
type MobilityResult struct {
	Vehicles  int
	Steps     int
	Records   int64
	Handovers int64
	Warnings  int64
	PriorHits int64
	// Warned counts vehicles that received at least one warning, split by
	// driver class.
	AggressiveWarned int
	NormalWarned     int
	Aggressive       int
	// AggressiveWarnRate and NormalWarnRate are mean per-record warning
	// rates per driver class — the discriminative metric.
	AggressiveWarnRate float64
	NormalWarnRate     float64
}

// RunMobileHandover drives a fleet along the corridor through a live
// 2-node cluster (motorway AD3 feeding link CAD3) until every journey
// completes.
func RunMobileHandover(sc *Scenario, cfg MobilityConfig) (*MobilityResult, error) {
	cfg = cfg.withDefaults()
	cluster, err := rsu.NewCluster(sc.Net, []rsu.Config{
		{Name: "Mw", Road: CorridorMotorwayID, Detector: sc.Upstream, Client: stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))},
		{Name: "Link", Road: CorridorLinkID, Detector: sc.CAD3, Client: stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))},
	})
	if err != nil {
		return nil, err
	}
	run, err := driveFleet(sc.Net, cluster, []geo.SegmentID{CorridorMotorwayID, CorridorLinkID}, fleetConfig{
		vehicles: cfg.Vehicles, aggressiveFraction: cfg.AggressiveFraction,
		step: cfg.StepInterval, maxSteps: 10_000,
	}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}

	res := &MobilityResult{Vehicles: cfg.Vehicles, Steps: run.steps, Handovers: run.handovers}
	for _, c := range run.cars {
		for hop := range c.records {
			res.Records += int64(c.records[hop])
			res.Warnings += int64(c.warnings[hop])
		}
	}
	cr := run.rates(0)
	res.Aggressive, res.AggressiveWarned, res.NormalWarned = cr.aggressive, cr.aggWarned, cr.normWarned
	res.AggressiveWarnRate, res.NormalWarnRate = cr.aggRate, cr.normRate
	res.PriorHits = cluster.Stats()["Link"].PriorHits
	return res, nil
}

// FormatMobility renders the mobility run.
func FormatMobility(res *MobilityResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vehicles=%d (aggressive %d), steps=%d, records=%d\n",
		res.Vehicles, res.Aggressive, res.Steps, res.Records)
	fmt.Fprintf(&sb, "handovers=%d, link-RSU prior hits=%d, warnings=%d\n",
		res.Handovers, res.PriorHits, res.Warnings)
	fmt.Fprintf(&sb, "warned drivers: %d/%d aggressive (rate %.2f), %d/%d normal (rate %.2f)\n",
		res.AggressiveWarned, res.Aggressive, res.AggressiveWarnRate,
		res.NormalWarned, res.Vehicles-res.Aggressive, res.NormalWarnRate)
	return sb.String()
}
