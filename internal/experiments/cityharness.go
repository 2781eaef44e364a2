package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"cad3/internal/city"
	"cad3/internal/geo"
	"cad3/internal/obsv"
	"cad3/internal/scenario"
	"cad3/internal/stream"
)

// CityScenarioHarness adapts the sharded city driver (internal/city) to
// the scenario engine, so corpus specs can storm shard-boundary
// handover the same way corridor specs storm a single RSU. One round is
// one virtual second (a control-plane tick), not the corridor's 50 ms
// batch window: handovers are journeys crossing shard boundaries, and a
// vehicle needs whole seconds of motion to reach one.
//
// The city fleet generates its own offered load (every vehicle is an
// arrival process on the virtual clock), so traffic shapes only pace
// the rounds — Rate and the mutation fractions are ignored. The action
// vocabulary is the subset that maps onto a sharded city:
//
//	kill / revive rK   kill (revive) replica K of EVERY shard's broker
//	                   cluster at once — a correlated storm, which is
//	                   what makes a flap interesting at city scale
//	link_loss          set the inter-shard handover link's drop
//	                   probability: forwarded CO-DATA summaries are
//	                   refused with prob p, exercising the router's
//	                   at-least-once retry and the receiver-side dedup
//	heal_all           clear the handover-link loss
//
// Everything else (partitions, delay, clock skew, reorder, join, RSU
// crash/recover) is reported as an action error and the run continues,
// per the engine's contract.
//
// Measurements are phase-scoped deltas of the city.* counters plus the
// cumulative settlement audit; the loss/duplication fields are omitted
// unless the city is fully drained (in_flight == 0), the same
// conditional-omission rule the corridor harness uses — a spec cannot
// vacuously pass a zero-loss assertion against an undrained city.
type CityScenarioHarness struct {
	cfg CityHarnessConfig
	net *geo.Network

	drv  *city.Driver
	reg  *obsv.Registry
	loss float64
	rng  *rand.Rand

	base map[string]int64 // counter snapshot at BeginPhase
}

// CityHarnessConfig sizes the per-run city. The zero value selects a
// compact city (4 shards, 300 vehicles) that still hands over briskly.
type CityHarnessConfig struct {
	// Shards is the worker shard count. <= 0 selects 4.
	Shards int
	// Vehicles is the fleet size. <= 0 selects 300.
	Vehicles int
	// Replicas per shard broker cluster. <= 0 selects 3.
	Replicas int
	// Scale / ExtentMeters / NetSeed shape the synthetic road network,
	// built once and shared across runs (the network is read-only; all
	// per-run randomness comes from the spec seed). Zero values select
	// the compact test city (0.05, 6 km, seed 11).
	Scale        float64
	ExtentMeters float64
	NetSeed      int64
}

// NewCityScenarioHarness builds the road network and returns a harness
// ready for the engine; the city itself is rebuilt on every Reset.
func NewCityScenarioHarness(cfg CityHarnessConfig) (*CityScenarioHarness, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Vehicles <= 0 {
		cfg.Vehicles = 300
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.05
	}
	if cfg.ExtentMeters <= 0 {
		cfg.ExtentMeters = 6000
	}
	if cfg.NetSeed == 0 {
		cfg.NetSeed = 11
	}
	net, err := geo.BuildNetwork(geo.BuildConfig{
		Scale:        cfg.Scale,
		ExtentMeters: cfg.ExtentMeters,
		Seed:         cfg.NetSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("city harness: build network: %w", err)
	}
	geo.ConnectNearest(net, 2, 1500)
	return &CityScenarioHarness{cfg: cfg, net: net}, nil
}

var _ scenario.Harness = (*CityScenarioHarness)(nil)

// cityRound is the virtual span of one scenario round.
const cityRound = time.Second

// cityMaxRun bounds a run's virtual span; Advance refuses to step past
// it, so a spec would need > 3000 rounds to hit the bound.
const cityMaxRun = time.Hour

// Reset stands up a fresh city for one run: new registry, new driver
// seeded by the spec, fleet spawned, handover links rewired through the
// lossy chaos client (loss starts at 0).
func (h *CityScenarioHarness) Reset(seed int64) error {
	h.reg = obsv.NewRegistry()
	h.loss = 0
	h.rng = rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	drv, err := city.NewDriver(city.Config{
		Network:  h.net,
		Shards:   h.cfg.Shards,
		Vehicles: h.cfg.Vehicles,
		Replicas: h.cfg.Replicas,
		Seed:     seed,
		Duration: cityMaxRun,
		// The compact city hands over briskly at the test rates.
		CellMeters:           1000,
		EventsPerVehicleHour: 30,
		ProbesPerVehicleHour: 60,
		Metrics:              h.reg,
	})
	if err != nil {
		return err
	}
	if err := drv.Start(); err != nil {
		return err
	}
	err = drv.RewireRouter(func(dest string, c stream.Client) stream.Client {
		return &lossyClient{inner: c, prob: &h.loss, rng: h.rng}
	})
	if err != nil {
		return err
	}
	h.drv = drv
	h.base = h.counters()
	return nil
}

// BeginPhase snapshots the counters so Measure can report phase deltas.
func (h *CityScenarioHarness) BeginPhase(string) error {
	h.base = h.counters()
	return nil
}

// Round advances the city by one virtual second.
func (h *CityScenarioHarness) Round(scenario.Traffic) error {
	_, err := h.drv.Advance(cityRound)
	return err
}

// Apply maps one engine action onto the city (see the type comment for
// the supported vocabulary).
func (h *CityScenarioHarness) Apply(a scenario.Action) error {
	switch a.Type {
	case "kill", "revive":
		var rep int
		if _, err := fmt.Sscanf(a.Replica, "r%d", &rep); err != nil {
			return fmt.Errorf("city harness: bad replica %q", a.Replica)
		}
		for s := 0; s < h.drv.Shards(); s++ {
			f := city.Fault{Shard: s, Replica: rep, Revive: a.Type == "revive"}
			if err := h.drv.InjectFault(f); err != nil {
				return err
			}
		}
		return nil
	case "link_loss":
		h.loss = a.Prob
		return nil
	case "heal_all":
		h.loss = 0
		return nil
	default:
		return fmt.Errorf("city harness: unsupported action %q", a.Type)
	}
}

// Settle pumps the city until every queue is dry (no virtual time
// passes — the same drain the settlement protocol runs).
func (h *CityScenarioHarness) Settle() error {
	h.drv.Drain()
	return nil
}

// cityPhaseCounters are the registry counters Measure reports as
// phase-scoped deltas, keyed by measurement name.
var cityPhaseCounters = map[string]string{
	"telemetry":          "city.telemetry",
	"abnormal":           "city.abnormal",
	"warnings":           "city.warnings",
	"warnings_delivered": "city.warnings_delivered",
	"handovers":          "city.handovers",
	"handover_summaries": "city.handover_summaries",
	"handover_applied":   "city.handover_applied",
	"handover_dups":      "city.handover_dups",
	"handover_misrouted": "city.handover_misrouted",
	"site_handovers":     "city.site_handovers",
	"prior_hits":         "city.prior_hits",
	"produce_retries":    "city.produce_retries",
	"router_retries":     "shard.router.retries",
	"router_sent":        "shard.router.sent",
}

// counters snapshots every phase-scoped counter.
func (h *CityScenarioHarness) counters() map[string]int64 {
	out := make(map[string]int64, len(cityPhaseCounters))
	for name, metric := range cityPhaseCounters {
		out[name] = h.reg.Counter(metric).Value()
	}
	return out
}

// Measure reports phase deltas plus the cumulative settlement audit.
// The loss/duplication book is conditional on a drained city: with work
// still in flight those fields are omitted so an assertion against them
// fails loudly rather than reading a half-settled ledger.
func (h *CityScenarioHarness) Measure() (scenario.Measurements, error) {
	m := scenario.Measurements{}
	now := h.counters()
	for name := range cityPhaseCounters {
		m[name] = float64(now[name] - h.base[name])
	}
	m["elections"] = float64(h.reg.Counter("election.count").Value())
	inFlight := h.drv.InFlight()
	m["in_flight"] = float64(inFlight)
	if inFlight == 0 {
		a := h.drv.Audit()
		m["telemetry_unacked"] = float64(a.TelemetryUnacked)
		m["warnings_lost"] = float64(a.WarningsLost)
		m["warnings_dup"] = float64(a.WarningsDup)
		m["false_warnings"] = float64(a.FalseWarnings)
		m["handover_lost"] = float64(a.HandoverLost)
		m["handover_applied_total"] = float64(a.HandoverApplied)
	}
	return m, nil
}

// lossyClient is the chaos wrapper RewireRouter installs on every
// inter-shard handover link: Produce is refused with the shared drop
// probability, so a forwarded summary stays queued in the router and is
// retried on the next flush — at-least-once transport under loss, with
// the receiver's dedup keeping application exactly-once.
type lossyClient struct {
	inner stream.Client
	prob  *float64
	rng   *rand.Rand
}

var _ stream.Client = (*lossyClient)(nil)

func (l *lossyClient) Produce(topic string, partition int32, key, value []byte) (int32, int64, error) {
	if p := *l.prob; p > 0 && l.rng.Float64() < p {
		return 0, 0, fmt.Errorf("lossy link: dropped produce to %s", topic)
	}
	return l.inner.Produce(topic, partition, key, value)
}

func (l *lossyClient) CreateTopic(name string, partitions int) error {
	return l.inner.CreateTopic(name, partitions)
}

func (l *lossyClient) Fetch(topic string, partition int32, offset int64, max int) ([]stream.Message, error) {
	return l.inner.Fetch(topic, partition, offset, max)
}

func (l *lossyClient) PartitionCount(topic string) (int, error) {
	return l.inner.PartitionCount(topic)
}

func (l *lossyClient) ListTopics() ([]string, error) { return l.inner.ListTopics() }

func (l *lossyClient) Close() error { return l.inner.Close() }
