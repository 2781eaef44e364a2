package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cad3/internal/core"
	"cad3/internal/metrics"
	"cad3/internal/netem"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// MultiRSUConfig configures the Figure 6b/6d experiment: one motorway-link
// RSU connected to four motorway RSUs (Figure 1's intersection), 128
// vehicles per RSU, with the motorway RSUs forwarding prediction
// summaries to the link RSU's CO-DATA topic.
type MultiRSUConfig struct {
	// MotorwayRSUs is the number of motorway RSUs feeding the link RSU.
	// Values <= 0 select 4.
	MotorwayRSUs int
	// VehiclesPerRSU. Values <= 0 select 128.
	VehiclesPerRSU int
	// Duration is the virtual experiment length. Values <= 0 select 5 s.
	Duration time.Duration
	// SummaryInterval is how often each motorway RSU forwards a batch of
	// handover summaries. Values <= 0 select 1 s.
	SummaryInterval time.Duration
	// SummariesPerInterval is how many vehicles hand over per interval.
	// Values <= 0 select 8.
	SummariesPerInterval int
	// Seed drives jitter.
	Seed int64
	// Backhaul selects the inter-RSU link technology for CO-DATA
	// forwarding (paper §IV-A: wired Ethernet, or LTE/5G where RSUs are
	// beyond cable reach). Zero selects Ethernet.
	Backhaul netem.BackhaulKind
	// Records / Detector as in LatencyConfig. Required.
	Records  []trace.Record
	Detector core.Detector
	// Proc / Diss inject substrate cost models (defaults as in
	// LatencyConfig).
	Proc ProcessingModel
	Diss DisseminationModel
}

func (c MultiRSUConfig) withDefaults() MultiRSUConfig {
	if c.MotorwayRSUs <= 0 {
		c.MotorwayRSUs = 4
	}
	if c.VehiclesPerRSU <= 0 {
		c.VehiclesPerRSU = 128
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.SummaryInterval <= 0 {
		c.SummaryInterval = time.Second
	}
	if c.SummariesPerInterval <= 0 {
		c.SummariesPerInterval = 8
	}
	if c.Backhaul == 0 {
		c.Backhaul = netem.BackhaulEthernet
	}
	if c.Proc == (ProcessingModel{}) {
		c.Proc = DefaultProcessingModel()
	}
	if c.Diss == (DisseminationModel{}) {
		c.Diss = DefaultDisseminationModel()
	}
	return c
}

// RSUResult is one bar of Figure 6b (dissemination latency per RSU) and
// Figure 6d (received bandwidth per RSU).
type RSUResult struct {
	Name          string
	IsLink        bool
	Dissemination metrics.Summary
	// UplinkBps is the vehicle->RSU bandwidth; CoDataBps the extra
	// inter-RSU summary traffic (nonzero only for the link RSU).
	UplinkBps float64
	CoDataBps float64
	Warnings  int64
}

// TotalBps returns the RSU's total received bandwidth (Figure 6d).
func (r RSUResult) TotalBps() float64 { return r.UplinkBps + r.CoDataBps }

// RunMultiRSU executes the 5-RSU discrete-event scenario: one site per
// RSU, each with its own rsu.Node, broker and DSRC medium.
func RunMultiRSU(cfg MultiRSUConfig) ([]RSUResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Records) == 0 || cfg.Detector == nil {
		return nil, fmt.Errorf("experiments: multi-RSU run needs records and a detector")
	}

	sim := netem.NewSimulator(simStart)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sites := make([]*site, cfg.MotorwayRSUs+1)
	for i := range sites {
		name := "Mw Link"
		if i > 0 {
			name = fmt.Sprintf("Mw R%d", i)
		}
		siteCfg := LatencyConfig{
			Vehicles: cfg.VehiclesPerRSU, Duration: cfg.Duration, MCS: netem.MCS8,
			Seed: cfg.Seed + int64(i), Records: cfg.Records, Detector: cfg.Detector,
			Proc: cfg.Proc, Diss: cfg.Diss,
		}.withDefaults()
		s, err := newSite(sim, rng, name, siteCfg, trace.CarID(i*cfg.VehiclesPerRSU+1))
		if err != nil {
			return nil, err
		}
		s.start(time.Duration(rng.Int63n(int64(siteCfg.PollInterval))))
		sites[i] = s
	}

	// Inter-RSU collaboration: each motorway RSU periodically forwards
	// handover summaries to the link RSU's CO-DATA topic over the
	// configured backhaul link (the delivery pays the link's delay).
	link := sites[0]
	end := link.end
	var coBytes int64
	backhaul, err := netem.NewBackhaul(cfg.Backhaul, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(sites); i++ {
		var forward func()
		forward = func() {
			now := sim.Now()
			if now.After(end) {
				return
			}
			for k := 0; k < cfg.SummariesPerInterval; k++ {
				sum := core.PredictionSummary{
					Car:         trace.CarID(i*cfg.VehiclesPerRSU + rng.Intn(cfg.VehiclesPerRSU) + 1),
					MeanPNormal: rng.Float64(),
					Count:       10 + rng.Intn(90),
					FromRoad:    int64(i),
					UpdatedMs:   now.UnixMilli(),
				}
				payload, err := core.EncodeSummary(sum)
				if err != nil {
					continue
				}
				sim.After(backhaul.Delay(len(payload)), func() {
					if _, _, err := link.broker.Produce(stream.TopicCoData, stream.AutoPartition, nil, payload); err == nil {
						coBytes += int64(len(payload))
					}
				})
			}
			sim.After(cfg.SummaryInterval, forward)
		}
		sim.After(cfg.SummaryInterval, forward)
	}

	sim.RunUntil(end.Add(300 * time.Millisecond))
	out := make([]RSUResult, 0, len(sites))
	for i, s := range sites {
		if s.err != nil {
			return nil, s.err
		}
		r := RSUResult{
			Name:          s.node.Name(),
			IsLink:        i == 0,
			Dissemination: s.recorder.Report().Dissemination,
			UplinkBps:     s.uplinkBps(),
			Warnings:      s.warnings,
		}
		if r.IsLink {
			r.CoDataBps = float64(coBytes) * 8 / cfg.Duration.Seconds()
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatRSUResults renders Figure 6b + 6d.
func FormatRSUResults(results []RSUResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %14s %12s %12s %12s\n", "RSU", "dissem(mean)", "dissem(se)", "uplink-mbps", "total-mbps")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-8s %14s %12s %12.3f %12.3f\n",
			r.Name,
			r.Dissemination.Mean.Round(10*time.Microsecond),
			r.Dissemination.StdErr.Round(10*time.Microsecond),
			r.UplinkBps/1e6,
			r.TotalBps()/1e6,
		)
	}
	return sb.String()
}
