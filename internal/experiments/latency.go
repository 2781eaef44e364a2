package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/metrics"
	"cad3/internal/netem"
	"cad3/internal/trace"
)

// ProcessingModel converts batch size to virtual processing time. The
// defaults are calibrated to the paper's measurements on its 6-worker
// Spark cluster (7.3 ms per batch at 8 vehicles, 11.7 ms at 256): the
// fixed part is Spark micro-batch scheduling overhead, the linear part
// per-record classification cost. The site's rsu.Node does the detecting;
// the model replaces the node's measured time (well under a microsecond a
// record) on the simulator clock, so it represents the paper's substrate,
// not ours.
type ProcessingModel struct {
	Base      time.Duration
	PerRecord time.Duration
}

// DefaultProcessingModel solves the paper's two calibration points.
func DefaultProcessingModel() ProcessingModel {
	return ProcessingModel{Base: 7150 * time.Microsecond, PerRecord: 35500 * time.Nanosecond}
}

// Cost returns the processing time for a batch of n records.
func (p ProcessingModel) Cost(n int) time.Duration {
	return p.Base + time.Duration(n)*p.PerRecord
}

// DisseminationModel adds the consumer-side fetch overhead the paper
// measures (§VI-D3 decomposes dissemination as 10 ms poll + 7.2 +- 4.4 ms
// fetch/deserialize): each delivered warning pays a jittered overhead on
// top of the poll-alignment wait the simulation produces naturally.
type DisseminationModel struct {
	FetchOverhead time.Duration
	FetchJitter   time.Duration
}

// DefaultDisseminationModel matches the paper's 7.2 +- 4.4 ms.
func DefaultDisseminationModel() DisseminationModel {
	return DisseminationModel{FetchOverhead: 7200 * time.Microsecond, FetchJitter: 4400 * time.Microsecond}
}

func (d DisseminationModel) sample(rng *rand.Rand) time.Duration {
	j := time.Duration((rng.Float64()*2 - 1) * float64(d.FetchJitter))
	out := d.FetchOverhead + j
	if out < 0 {
		out = 0
	}
	return out
}

// LatencyConfig configures the Figure 6a/6c discrete-event experiment:
// N vehicles stream 200 B records at 10 Hz over the emulated DSRC channel
// into one RSU running 50 ms micro-batches; warnings flow back through
// 10 ms consumer polls.
type LatencyConfig struct {
	// Vehicles attached to the RSU (paper sweeps 8..256).
	Vehicles int
	// Duration is the virtual experiment length. Values <= 0 select 5 s.
	Duration time.Duration
	// BatchInterval (50 ms), SendInterval (100 ms = 10 Hz) and
	// PollInterval (10 ms) default to the paper's settings.
	BatchInterval time.Duration
	SendInterval  time.Duration
	PollInterval  time.Duration
	// MCS selects the DSRC modulation; zero selects MCS8 (64-QAM 3/4).
	// Per the paper's own Equation 5 analysis, MCS 3 barely fits 256
	// vehicles in one 100 ms reporting period (92.62 ms) and §VII-B
	// prescribes higher-rate modes for dense deployments; with this
	// repository's fuller 802.11p frame model MCS 3 saturates at 256
	// vehicles, so the dense-deployment mode is the default.
	MCS netem.MCS
	// Seed drives jitter.
	Seed int64
	// Records is the telemetry replay pool. Required.
	Records []trace.Record
	// Detector classifies records. Required (priors are not exercised
	// here; this is the single-RSU network experiment).
	Detector core.Detector
	// Proc and Diss inject the substrate cost models.
	Proc ProcessingModel
	Diss DisseminationModel
}

func (c LatencyConfig) withDefaults() LatencyConfig {
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.BatchInterval <= 0 {
		c.BatchInterval = 50 * time.Millisecond
	}
	if c.SendInterval <= 0 {
		c.SendInterval = 100 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	if c.MCS == 0 {
		c.MCS = netem.MCS8
	}
	if c.Proc == (ProcessingModel{}) {
		c.Proc = DefaultProcessingModel()
	}
	if c.Diss == (DisseminationModel{}) {
		c.Diss = DefaultDisseminationModel()
	}
	return c
}

// LatencyResult is one point of Figure 6a and 6c.
type LatencyResult struct {
	Vehicles int
	Report   metrics.LatencyReport
	// Live is the same experiment measured through the wire-format trace
	// context (obsv.TraceContext riding the record frame's padding and the
	// warning's trace tail) instead of the offline bookkeeping maps: every
	// stage stamps the payload in flight and the poll loop completes the
	// breakdown per warning. Offline reconstruction (Report) and the live
	// path must agree — TestLatencyLiveTraceMatchesOffline pins the means
	// within a millisecond.
	Live metrics.LatencyReport
	// LiveTraced counts warnings whose trace context survived the full
	// pipeline (equal to Warnings when every hop is trace-aware).
	LiveTraced int
	Warnings   int64
	Records    int64
	// PerVehicleBps is the mean uplink rate per vehicle; TotalBps the
	// RSU's received bandwidth (Figure 6c).
	PerVehicleBps float64
	TotalBps      float64
}

// RunLatency executes the single-RSU discrete-event pipeline: one site
// whose rsu.Node does the detecting.
func RunLatency(cfg LatencyConfig) (*LatencyResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Vehicles <= 0 {
		return nil, fmt.Errorf("experiments: vehicles must be positive")
	}
	if len(cfg.Records) == 0 {
		return nil, fmt.Errorf("experiments: latency run needs a record pool")
	}
	if cfg.Detector == nil {
		return nil, fmt.Errorf("experiments: latency run needs a detector")
	}

	sim := netem.NewSimulator(simStart)
	s, err := newSite(sim, rand.New(rand.NewSource(cfg.Seed)), "rsu", cfg, 1)
	if err != nil {
		return nil, err
	}
	s.start(0)
	sim.RunUntil(s.end.Add(300 * time.Millisecond))
	if s.err != nil {
		return nil, s.err
	}
	total := s.uplinkBps()
	return &LatencyResult{
		Vehicles:      cfg.Vehicles,
		Report:        s.recorder.Report(),
		Live:          s.live.Report(),
		LiveTraced:    s.live.Count(),
		Warnings:      s.warnings,
		Records:       s.node.Stats().Records,
		PerVehicleBps: total / float64(cfg.Vehicles),
		TotalBps:      total,
	}, nil
}

// RunLatencyScaling sweeps vehicle counts (Figure 6a/6c; the paper uses
// 8, 16, 32, 64, 128, 256).
func RunLatencyScaling(counts []int, base LatencyConfig) ([]*LatencyResult, error) {
	if len(counts) == 0 {
		counts = []int{8, 16, 32, 64, 128, 256}
	}
	out := make([]*LatencyResult, 0, len(counts))
	for _, n := range counts {
		cfg := base
		cfg.Vehicles = n
		res, err := RunLatency(cfg)
		if err != nil {
			return nil, fmt.Errorf("latency run %d vehicles: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatLatencyResults renders the Figure 6a + 6c series. The live-total
// column is the wire-trace measurement of the same warnings (see
// LatencyResult.Live) — it should track the offline total within a
// millisecond.
func FormatLatencyResults(results []*LatencyResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %10s %10s %10s %10s %10s %10s %12s %12s\n",
		"vehicles", "tx", "queue", "proc", "dissem", "total", "live-total", "kbps/vehicle", "total-mbps")
	for _, r := range results {
		fmt.Fprintf(&sb, "%8d %10s %10s %10s %10s %10s %10s %12.1f %12.3f\n",
			r.Vehicles,
			r.Report.Tx.Mean.Round(10*time.Microsecond),
			r.Report.Queue.Mean.Round(10*time.Microsecond),
			r.Report.Processing.Mean.Round(10*time.Microsecond),
			r.Report.Dissemination.Mean.Round(10*time.Microsecond),
			r.Report.Total.Mean.Round(10*time.Microsecond),
			r.Live.Total.Mean.Round(10*time.Microsecond),
			r.PerVehicleBps/1000,
			r.TotalBps/1e6,
		)
	}
	return sb.String()
}

// BuildLatencyInputs builds a compact record pool (~40% abnormal
// motorway-link records) and a trained AD3 detector for the network
// experiments, without the full model scenario.
func BuildLatencyInputs(seed int64) ([]trace.Record, core.Detector, error) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(speed, accel float64, hour int) trace.Record {
		return trace.Record{
			Car: 1, Road: CorridorLinkID, RoadType: geo.MotorwayLink,
			Speed: speed, Accel: accel, Hour: hour, Day: 4, RoadMeanSpeed: 35,
			Lat:     geo.ShenzhenCenter.Lat + rng.Float64()*0.01,
			Lon:     geo.ShenzhenCenter.Lon + rng.Float64()*0.01,
			Heading: rng.Float64() * 360,
		}
	}
	var train []trace.Record
	for i := 0; i < 4000; i++ {
		train = append(train, mk(35+rng.NormFloat64()*5, rng.NormFloat64(), 8+rng.Intn(12)))
	}
	for i := 0; i < 1200; i++ {
		train = append(train, mk(55+rng.NormFloat64()*10, rng.NormFloat64()*3, 8+rng.Intn(12)))
	}
	labeler, err := core.TrainLabeler(train, 0)
	if err != nil {
		return nil, nil, err
	}
	det := core.NewAD3(geo.MotorwayLink)
	if err := det.Train(train, labeler); err != nil {
		return nil, nil, err
	}
	// Replay pool: a fresh mixed sample.
	var pool []trace.Record
	for i := 0; i < 600; i++ {
		if i%5 < 3 {
			pool = append(pool, mk(35+rng.NormFloat64()*5, rng.NormFloat64(), 9))
		} else {
			pool = append(pool, mk(60+rng.NormFloat64()*8, rng.NormFloat64()*3, 9))
		}
	}
	return pool, det, nil
}
