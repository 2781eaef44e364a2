package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cad3/internal/chaos"
	"cad3/internal/core"
	"cad3/internal/flow"
	"cad3/internal/obsv"
	"cad3/internal/rsu"
	"cad3/internal/scenario"
	"cad3/internal/stream"
	"cad3/internal/trace"
	"cad3/internal/vehicle"
)

// ScenarioHarness implements scenario.Harness over the full simulation
// stack: a replicated broker cluster under a chaos injector, a live CAD3
// link RSU, a paced vehicle fleet, and an acks=all corridor replay whose
// ledger settles the durability measurements. One harness serves many
// runs; Reset rebuilds everything from the spec's seed, so a run is a
// pure function of (spec, harness config) and the engine's transcript
// determinism contract holds end to end.
//
// Two data paths feed the RSU each round:
//
//   - the fleet path: Vehicles paced senders replaying link telemetry
//     through a chaos.Client link ("veh" -> "rsu") at Traffic.Rate times
//     the nominal 10 Hz — the offered-load knob, where pacing,
//     backpressure and link faults bite;
//   - the ledger path: corridor link records (original car IDs, ground
//     truth labels) produced at acks=all straight at the replica set and
//     entered into the durability ledger — the records the zero
//     acked-loss and false-negative measurements are computed over.
//     Traffic.SpoofFrac / FaultFrac mutate a slice of these before
//     produce; mutated records are tracked separately and excluded from
//     truth accounting.
//
// Replication links are chaos.ReplicaLinks named "leader" -> r<i>, so
// spec partitions can cut exactly the paths the ISR depends on. The node
// itself can die (rsu_crash) and come back from its last checkpoint
// (rsu_recover); the replica set, and so its logs, outlive it.
type ScenarioHarness struct {
	cfg ScenarioHarnessConfig
	// events is the sorted corridor link replay with precomputed ground
	// truth, shared by every run.
	events []ledgerSrc
	run    *scenarioRun
}

// ScenarioHarnessConfig configures a harness.
type ScenarioHarnessConfig struct {
	// Scenario supplies corridor records and the trained CAD3. Required.
	Scenario *Scenario
	// Vehicles is the paced fleet size. Values <= 0 select 24.
	Vehicles int
	// Replicas is the broker cluster size. Values <= 0 select 3.
	Replicas int
	// FlowCapacity is the per-partition admission bound. Values <= 0
	// select 128.
	FlowCapacity int
	// LedgerPerRound is the nominal acks=all corridor records per round
	// (scaled by Traffic.Rate). Values <= 0 select 4.
	LedgerPerRound int
	// TickRounds is the control-plane cadence in rounds. Values <= 0
	// select 8 (400 ms virtual at the 50 ms round).
	TickRounds int
}

func (c ScenarioHarnessConfig) withDefaults() ScenarioHarnessConfig {
	if c.Vehicles <= 0 {
		c.Vehicles = 24
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.FlowCapacity <= 0 {
		c.FlowCapacity = 128
	}
	if c.LedgerPerRound <= 0 {
		c.LedgerPerRound = 4
	}
	if c.TickRounds <= 0 {
		c.TickRounds = 8
	}
	return c
}

// ledgerSrc is one corridor record with its offline ground truth.
type ledgerSrc struct {
	rec      trace.Record
	truth    int
	hasTruth bool
}

// ackedRow is one acks=all ledger row (what was acked, where, and what
// the durability sweep must read back).
type ackedRow struct {
	part    int32
	off     int64
	car     trace.CarID
	ts      int64
	truth   int
	scored  bool // has ground truth and was not mutated
	spoofed bool
	// ad3Abnormal is the standalone AD3 verdict on the produced record:
	// the floor fn_vs_ad3 holds the live CAD3 node to.
	ad3Abnormal bool
}

// pendingLedger is a refused ledger record waiting to retry.
type pendingLedger struct {
	payload []byte
	row     ackedRow
	retried bool
}

// phaseBase snapshots the cumulative counters a phase's deltas are
// computed against.
type phaseBase struct {
	produced, acked, failed, retried int64
	spoofed, faulty                  int64
	delivered, spoofWarn             int64
	fleetOffered, fleetSent          int64
	fleetPaced, fleetBackpressured   int64
	fleetSendErrs                    int64
	nodeStats                        rsu.Stats
	leaderless                       int64
}

// scenarioRun is one run's live state, rebuilt by Reset.
type scenarioRun struct {
	h   *ScenarioHarness
	rng *rand.Rand

	vnowMs int64
	skewMs int64

	inj   *chaos.Injector
	rset  *stream.ReplicaSet
	reg   *obsv.Registry
	fleet *vehicle.Fleet

	// node is the link CAD3 node, nil while crashed. nodeCfg is what Reset
	// built it with (rsu_recover reuses it), checkpoint what the crashed
	// node left, and carried the crashed incarnations' final counters.
	node       *rsu.Node
	nodeCfg    rsu.Config
	checkpoint *rsu.Checkpoint
	carried    rsu.Stats

	group   *stream.Group
	members []*stream.GroupMember

	replicaIDs []string
	killed     map[string]bool

	round       int // absolute rounds driven
	eventIdx    int // replay cursor into h.events
	reorderProb float64
	spoofSeq    int64

	// fleetAcc/fleetIdx are per-vehicle fractional-rate accumulators and
	// replay cursors; ledgerAcc is the ledger path's. fleetOfferedTotal
	// counts pre-pacing send attempts (the offered-load denominator).
	fleetAcc          []float64
	fleetIdx          []int
	ledgerAcc         float64
	fleetOfferedTotal int64
	fleetSendErrs     int64

	ledger  []ackedRow
	pending []pendingLedger

	// produced..leaderless are the cumulative counters phase deltas read.
	produced, acked, failed, retried int64
	spoofed, faulty                  int64
	delivered, spoofWarn             int64
	dupDeliveries                    int64
	leaderless                       int64

	// warned indexes delivered warnings by (car, source ts) for the
	// false-negative accounting; seen is the exactly-once delivery book.
	warned map[trace.CarID]map[int64]bool
	seen   map[int32]map[int64]bool

	// latMs collects this phase's warning latencies (reset per phase).
	latMs []int64

	base phaseBase
}

// NewScenarioHarness builds a harness over a trained scenario.
func NewScenarioHarness(cfg ScenarioHarnessConfig) (*ScenarioHarness, error) {
	cfg = cfg.withDefaults()
	sc := cfg.Scenario
	if sc == nil {
		return nil, fmt.Errorf("experiments: scenario harness needs a scenario")
	}
	var events []ledgerSrc
	for _, r := range sc.Test {
		if r.Road == CorridorLinkID {
			src := ledgerSrc{rec: r}
			if truth, err := sc.Labeler.Label(r); err == nil {
				src.truth, src.hasTruth = truth, true
			}
			events = append(events, src)
		}
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("experiments: scenario has no corridor link records")
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].rec.TimestampMs != events[j].rec.TimestampMs {
			return events[i].rec.TimestampMs < events[j].rec.TimestampMs
		}
		return events[i].rec.Car < events[j].rec.Car
	})
	return &ScenarioHarness{cfg: cfg, events: events}, nil
}

const (
	scenarioRoundMs   = 50                       // batch window (paper: 50 ms)
	scenarioSendEvery = 100                      // nominal per-vehicle period (10 Hz)
	scenarioBaseMs    = int64(1_700_000_000_000) // virtual epoch
	scenarioSpoofBase = trace.CarID(1_000_000)   // spoofed telemetry car IDs
	// scenarioProcUs is the modeled per-record detection cost charged to
	// the virtual clock: it makes batch latency, staleness and warning
	// latency functions of offered load, so overload shapes actually
	// overload.
	scenarioProcUs = 500
)

// Reset implements scenario.Harness: tear down the previous run and
// build a fresh cluster, node, fleet and consumer from the seed.
func (h *ScenarioHarness) Reset(seed int64) error {
	cfg := h.cfg
	sc := cfg.Scenario
	run := &scenarioRun{
		h:      h,
		rng:    rand.New(rand.NewSource(seed)),
		vnowMs: scenarioBaseMs,
		killed: map[string]bool{},
		warned: map[trace.CarID]map[int64]bool{},
		seen:   map[int32]map[int64]bool{},
		reg:    obsv.NewRegistry(),
	}
	now := func() time.Time { return time.UnixMilli(run.vnowMs) }
	sleep := func(d time.Duration) { run.vnowMs += d.Milliseconds() }

	// The injector's PRNG is offset from the run seed so fault draws and
	// traffic mutation draws are independent streams.
	run.inj = chaos.NewInjector(chaos.Config{Seed: seed + 1})

	replicas := make([]stream.Replica, cfg.Replicas)
	run.replicaIDs = make([]string, cfg.Replicas)
	for i := range replicas {
		id := fmt.Sprintf("r%d", i)
		run.replicaIDs[i] = id
		b := stream.NewBroker(stream.BrokerConfig{Now: now, FlowCapacity: cfg.FlowCapacity})
		link := chaos.NewReplicaLink(run.inj, "leader", id, b)
		link.Sleep = sleep
		replicas[i] = stream.Replica{ID: id, Broker: b, Link: link}
	}
	rset, err := stream.NewReplicaSet(stream.ReplicaSetConfig{
		Metrics: run.reg,
		Rebuild: stream.BrokerConfig{Now: now, FlowCapacity: cfg.FlowCapacity},
	}, replicas...)
	if err != nil {
		return err
	}
	run.rset = rset

	// The node gets a registry of its own: rsu.Recover restores a
	// checkpoint's snapshot into it wholesale, which must not rewind the
	// control-plane counters (elections, generations) in run.reg.
	run.nodeCfg = rsu.Config{
		Name: "Link", Road: CorridorLinkID,
		Detector: sc.CAD3, Client: rset.Client(stream.AckAll),
		Workers: 1, Now: now, Metrics: obsv.NewRegistry(),
		BatchSLO:       25 * time.Millisecond,
		ShedStaleAfter: 150 * time.Millisecond,
	}
	run.node, err = rsu.New(run.nodeCfg)
	if err != nil {
		return err
	}

	// The fleet reaches the cluster over the faultable radio link.
	dataLink := chaos.NewClient(run.inj, "veh", "rsu", rset.Client(stream.AckLeader))
	dataLink.Sleep = sleep
	run.fleet, err = vehicle.NewFleet(cfg.Vehicles, sc.TestLink,
		func(int) stream.Client { return dataLink },
		vehicle.Config{
			Loop: true, Now: now,
			Pacing: flow.PacerConfig{MaxDecimation: 8, RecoverAfter: 16},
		})
	if err != nil {
		return err
	}

	// Seed the CO-DATA priors: behaving-vehicle summaries for the fleet
	// IDs, the scenario's trained summaries for the replayed cars — the
	// evidence degraded-mode shedding and the CAD3 prior path need.
	coProducer, err := stream.NewProducer(rset.Client(stream.AckAll), stream.TopicCoData)
	if err != nil {
		return err
	}
	for i := 1; i <= cfg.Vehicles; i++ {
		payload, serr := core.EncodeSummary(core.PredictionSummary{
			Car: trace.CarID(i), MeanPNormal: 0.9, Count: 10,
			FromRoad: int64(CorridorMotorwayID), UpdatedMs: run.vnowMs,
		})
		if serr != nil {
			return serr
		}
		if _, _, serr = coProducer.Send(nil, payload); serr != nil {
			return fmt.Errorf("seed fleet summary %d: %w", i, serr)
		}
	}
	cars := make([]trace.CarID, 0, len(sc.Summaries))
	for car := range sc.Summaries {
		cars = append(cars, car)
	}
	sort.Slice(cars, func(i, j int) bool { return cars[i] < cars[j] })
	for _, car := range cars {
		s := sc.Summaries[car]
		s.UpdatedMs = run.vnowMs
		payload, serr := core.EncodeSummary(s)
		if serr != nil {
			return serr
		}
		if _, _, serr = coProducer.Send(nil, payload); serr != nil {
			return fmt.Errorf("seed summary car %d: %w", car, serr)
		}
	}

	run.group, err = stream.NewGroupCfg(stream.GroupConfig{
		Client: rset.Client(stream.AckLeader), Topic: stream.TopicOutData, Metrics: run.reg,
	})
	if err != nil {
		return err
	}
	if err := run.join(); err != nil {
		return err
	}
	run.fleetAcc = make([]float64, cfg.Vehicles)
	run.fleetIdx = make([]int, cfg.Vehicles)
	h.run = run
	return nil
}

// BeginPhase implements scenario.Harness: snapshot the cumulative
// counters so this phase's measurements are deltas, and reset the
// latency sample set.
func (h *ScenarioHarness) BeginPhase(name string) error {
	r := h.run
	if r == nil {
		return fmt.Errorf("scenario harness: BeginPhase before Reset")
	}
	r.base = phaseBase{
		produced: r.produced, acked: r.acked, failed: r.failed, retried: r.retried,
		spoofed: r.spoofed, faulty: r.faulty,
		delivered: r.delivered, spoofWarn: r.spoofWarn,
		leaderless: r.leaderless,
		nodeStats:  r.nodeStats(),
	}
	for _, v := range r.fleet.Vehicles() {
		r.base.fleetSent += v.Sent()
		r.base.fleetPaced += v.Pacer().Decimated()
		r.base.fleetBackpressured += v.Pacer().Backpressured()
	}
	r.base.fleetOffered = r.fleetOfferedTotal
	r.base.fleetSendErrs = r.fleetSendErrs
	r.latMs = r.latMs[:0]
	return nil
}

// Apply implements scenario.Harness: execute one fault action.
func (h *ScenarioHarness) Apply(a scenario.Action) error {
	r := h.run
	if r == nil {
		return fmt.Errorf("scenario harness: Apply before Reset")
	}
	switch a.Type {
	case "partition":
		if a.Both {
			r.inj.PartitionBoth(a.From, a.To)
		} else {
			r.inj.Partition(a.From, a.To)
		}
	case "heal":
		r.inj.Heal(a.From, a.To)
		if a.Both {
			r.inj.Heal(a.To, a.From)
		}
	case "heal_all":
		r.inj.HealAll()
	case "kill_leader":
		id, _, ok := r.rset.Leader(stream.TopicInData, 0)
		if !ok {
			return fmt.Errorf("kill_leader: no leader to kill")
		}
		if err := r.rset.Kill(id); err != nil {
			return err
		}
		r.killed[id] = true
	case "kill":
		if err := r.rset.Kill(a.Replica); err != nil {
			return err
		}
		r.killed[a.Replica] = true
	case "revive":
		if !r.killed[a.Replica] {
			return fmt.Errorf("revive %s: not killed", a.Replica)
		}
		if _, err := r.rset.Revive(a.Replica); err != nil {
			return err
		}
		delete(r.killed, a.Replica)
	case "link_loss":
		cfg := r.inj.Config()
		cfg.DropProb = a.Prob
		r.inj.SetConfig(cfg)
	case "link_dup":
		cfg := r.inj.Config()
		cfg.DupProb = a.Prob
		r.inj.SetConfig(cfg)
	case "link_delay":
		cfg := r.inj.Config()
		cfg.DelayProb = a.Prob
		cfg.MinDelay = time.Duration(a.MinMs) * time.Millisecond
		cfg.MaxDelay = time.Duration(a.MaxMs) * time.Millisecond
		r.inj.SetConfig(cfg)
	case "clock_skew":
		r.skewMs = a.SkewMs
	case "reorder":
		r.reorderProb = a.Prob
	case "join":
		return r.join()
	case "rsu_crash":
		if r.node == nil {
			return fmt.Errorf("rsu_crash: node already down")
		}
		// The node is checkpointed between rounds, just before its
		// process dies; its broker survives.
		cp, err := r.node.Checkpoint()
		if err != nil {
			return err
		}
		r.checkpoint, r.carried, r.node = cp, r.nodeStats(), nil
	case "rsu_recover":
		if r.node != nil {
			return fmt.Errorf("rsu_recover: node is not down")
		}
		cfg := r.nodeCfg
		cfg.Detector = nil // reload it from the checkpoint's bundle
		node, err := rsu.Recover(cfg, r.checkpoint)
		if err != nil {
			return err
		}
		r.node = node
	default:
		return fmt.Errorf("scenario harness: unknown action %q", a.Type)
	}
	return nil
}

// Round implements scenario.Harness: one 50 ms window — control-plane
// tick on cadence, fleet sends at the shaped rate, the ledger batch at
// acks=all, one node micro-batch, and a warning drain.
func (h *ScenarioHarness) Round(tr scenario.Traffic) error {
	r := h.run
	if r == nil {
		return fmt.Errorf("scenario harness: Round before Reset")
	}
	r.vnowMs += scenarioRoundMs
	if r.round%h.cfg.TickRounds == 0 {
		r.rset.Tick()
	}
	r.round++

	// Fleet path: each vehicle offers rate x (window / period) samples.
	perVehicle := tr.Rate * float64(scenarioRoundMs) / float64(scenarioSendEvery)
	for i, v := range r.fleet.Vehicles() {
		r.fleetAcc[i] += perVehicle
		for r.fleetAcc[i] >= 1 {
			r.fleetAcc[i]--
			if _, err := v.SendNext(r.fleetIdx[i]); err != nil {
				// Frames at a dead antenna: a leaderless window or a
				// partitioned radio link loses the sample, it does not
				// abort the world. The count is a measurement.
				r.fleetSendErrs++
			}
			r.fleetIdx[i]++
			r.fleetOfferedTotal++
		}
	}

	// Ledger path: retry what previous rounds refused, then the batch.
	r.flushPending()
	batch := r.buildBatch(tr)
	for i := range batch {
		r.produced++
		if len(r.pending) > 0 || !r.produce(&batch[i]) {
			r.pending = append(r.pending, batch[i])
		}
	}

	r.step()
	r.drain()
	return nil
}

// step runs one node micro-batch, charging its detection cost to the
// virtual clock, and returns the records it drained. A crashed node
// drains nothing.
func (r *scenarioRun) step() int {
	if r.node == nil {
		return 0
	}
	bs, err := r.node.Step()
	if err != nil {
		r.leaderless++
	}
	r.vnowMs += int64(bs.Records) * scenarioProcUs / 1000
	return bs.Records
}

// nodeStats is the link node's activity across crashes: the counters
// Measure reads, carried over from dead incarnations plus the live
// node's (a recovered node counts from zero).
func (r *scenarioRun) nodeStats() rsu.Stats {
	st := r.carried
	if r.node != nil {
		live := r.node.Stats()
		st.Records += live.Records
		st.Warnings += live.Warnings
		st.PriorHits += live.PriorHits
		st.Fallbacks += live.Fallbacks
		st.ShedStale += live.ShedStale
		st.DegradedRounds += live.DegradedRounds
	}
	return st
}

// join adds the next OUT-DATA group member (w1, w2, …).
func (r *scenarioRun) join() error {
	m, err := r.group.Join(fmt.Sprintf("w%d", len(r.members)+1))
	if err != nil {
		return err
	}
	r.members = append(r.members, m)
	return nil
}

// buildBatch assembles this round's acks=all corridor slice: replayed
// records re-stamped onto the virtual clock (plus any injected skew),
// with the traffic shape's spoof/fault fractions mutated in and the
// reorder probability applied as adjacent swaps.
func (r *scenarioRun) buildBatch(tr scenario.Traffic) []pendingLedger {
	h := r.h
	n := 0
	r.ledgerAcc += float64(h.cfg.LedgerPerRound) * tr.Rate
	for r.ledgerAcc >= 1 {
		r.ledgerAcc--
		n++
	}
	n += tr.Burst
	batch := make([]pendingLedger, 0, n)
	for k := 0; k < n; k++ {
		src := h.events[r.eventIdx%len(h.events)]
		r.eventIdx++
		rec := src.rec
		rec.TimestampMs = r.vnowMs + r.skewMs + int64(k)
		row := ackedRow{car: rec.Car, ts: rec.TimestampMs, truth: src.truth, scored: src.hasTruth}
		u := r.rng.Float64()
		switch {
		case u < tr.SpoofFrac:
			// Adversarial spoofed telemetry: an identity the corridor has
			// never seen, reporting implausible kinematics.
			r.spoofSeq++
			rec.Car = scenarioSpoofBase + trace.CarID(r.spoofSeq)
			rec.Speed *= 2.5
			rec.Accel = 40
			row.car, row.scored, row.spoofed = rec.Car, false, true
			r.spoofed++
		case u < tr.SpoofFrac+tr.FaultFrac:
			// Sensor fault: a stuck/garbage reading from a real car.
			rec.Speed = 0
			rec.Accel = -80
			row.scored = false
			r.faulty++
		}
		if row.scored {
			d, derr := h.cfg.Scenario.AD3.Detect(rec, nil)
			row.ad3Abnormal = derr == nil && d.Class == core.ClassAbnormal
		}
		payload, err := core.EncodeRecord(rec)
		if err != nil {
			continue
		}
		batch = append(batch, pendingLedger{payload: payload, row: row})
	}
	if r.reorderProb > 0 {
		for i := 0; i+1 < len(batch); i += 2 {
			if r.rng.Float64() < r.reorderProb {
				batch[i], batch[i+1] = batch[i+1], batch[i]
			}
		}
	}
	return batch
}

// produce attempts one acks=all append and books the ledger row.
func (r *scenarioRun) produce(p *pendingLedger) bool {
	part, off, err := r.rset.Produce(stream.TopicInData, stream.AutoPartition, nil, p.payload, stream.AckAll)
	if err != nil {
		r.failed++
		if !p.retried {
			p.retried = true
			r.retried++
		}
		return false
	}
	p.row.part, p.row.off = part, off
	r.ledger = append(r.ledger, p.row)
	r.acked++
	return true
}

func (r *scenarioRun) flushPending() {
	for len(r.pending) > 0 {
		if !r.produce(&r.pending[0]) {
			return
		}
		r.pending = r.pending[1:]
	}
}

// drain delivers pending OUT-DATA warnings to every group member, booking
// exactly-once state, spoof attribution and latency samples.
func (r *scenarioRun) drain() {
	for _, member := range r.members {
		r.drainMember(member)
	}
}

func (r *scenarioRun) drainMember(member *stream.GroupMember) {
	for {
		//cad3:allow wireerrexhaustive leaderless-window fetch errors are the disruption under measurement, not a run failure; exactly-once booking below tolerates the gap
		msgs, _ := member.Poll(512)
		if len(msgs) == 0 {
			return
		}
		for i := range msgs {
			byOff := r.seen[msgs[i].Partition]
			if byOff == nil {
				byOff = make(map[int64]bool)
				r.seen[msgs[i].Partition] = byOff
			}
			if byOff[msgs[i].Offset] {
				r.dupDeliveries++
			}
			byOff[msgs[i].Offset] = true
			r.delivered++
			w, err := core.DecodeWarning(msgs[i].Value)
			if err != nil {
				continue
			}
			if w.Car >= scenarioSpoofBase {
				r.spoofWarn++
			}
			byTs := r.warned[w.Car]
			if byTs == nil {
				byTs = make(map[int64]bool)
				r.warned[w.Car] = byTs
			}
			byTs[w.SourceTsMs] = true
			l := r.vnowMs - w.SourceTsMs
			if l < 0 {
				l = 0
			}
			r.latMs = append(r.latMs, l)
		}
		stream.RecycleMessages(msgs)
	}
}

// Settle implements scenario.Harness: tick the control plane and drain
// the pipeline until the send queue is flushed and two consecutive
// iterations move nothing.
func (h *ScenarioHarness) Settle() error {
	r := h.run
	if r == nil {
		return fmt.Errorf("scenario harness: Settle before Reset")
	}
	quiet := 0
	for i := 0; i < 60 && quiet < 2; i++ {
		r.vnowMs += int64(h.cfg.TickRounds) * scenarioRoundMs
		r.rset.Tick()
		r.flushPending()
		before := r.delivered
		records := r.step()
		r.drain()
		if len(r.pending) == 0 && records == 0 && r.delivered == before {
			quiet++
		} else {
			quiet = 0
		}
	}
	return nil
}

// Measure implements scenario.Harness: phase deltas plus the cumulative
// durability, control-plane and detection-quality books. Conditional
// measurements (latency quantiles with no samples, fn_rate with no
// labeled abnormal records, missed_deliveries during a leaderless
// window) are omitted rather than zeroed, so assertions on them fail
// loudly instead of passing vacuously — SCENARIOS.md documents each key.
func (h *ScenarioHarness) Measure() (scenario.Measurements, error) {
	r := h.run
	if r == nil {
		return nil, fmt.Errorf("scenario harness: Measure before Reset")
	}
	m := scenario.Measurements{}

	// Phase deltas.
	m["produced"] = float64(r.produced - r.base.produced)
	m["acked"] = float64(r.acked - r.base.acked)
	m["failed_produces"] = float64(r.failed - r.base.failed)
	m["retried_records"] = float64(r.retried - r.base.retried)
	m["spoofed"] = float64(r.spoofed - r.base.spoofed)
	m["faulty"] = float64(r.faulty - r.base.faulty)
	m["warnings"] = float64(r.delivered - r.base.delivered)
	m["spoof_warnings"] = float64(r.spoofWarn - r.base.spoofWarn)
	m["leaderless_steps"] = float64(r.leaderless - r.base.leaderless)

	var sent, paced, backpressured int64
	for _, v := range r.fleet.Vehicles() {
		sent += v.Sent()
		paced += v.Pacer().Decimated()
		backpressured += v.Pacer().Backpressured()
	}
	offered := r.fleetOfferedTotal - r.base.fleetOffered
	m["fleet_offered"] = float64(offered)
	m["fleet_sent"] = float64(sent - r.base.fleetSent)
	m["fleet_paced_out"] = float64(paced - r.base.fleetPaced)
	m["fleet_backpressured"] = float64(backpressured - r.base.fleetBackpressured)
	m["fleet_send_errors"] = float64(r.fleetSendErrs - r.base.fleetSendErrs)

	st := r.nodeStats()
	m["node_processed"] = float64(st.Records - r.base.nodeStats.Records)
	m["node_prior_hits"] = float64(st.PriorHits - r.base.nodeStats.PriorHits)
	m["node_fallbacks"] = float64(st.Fallbacks - r.base.nodeStats.Fallbacks)
	m["node_shed_stale"] = float64(st.ShedStale - r.base.nodeStats.ShedStale)
	m["node_detected"] = float64((st.Records - st.ShedStale) -
		(r.base.nodeStats.Records - r.base.nodeStats.ShedStale))
	m["node_degraded_rounds"] = float64(st.DegradedRounds - r.base.nodeStats.DegradedRounds)
	if offered > 0 {
		m["shed_fraction"] = (float64(paced-r.base.fleetPaced) +
			float64(st.ShedStale-r.base.nodeStats.ShedStale)) / float64(offered)
	}

	if len(r.latMs) > 0 {
		sorted := append([]int64(nil), r.latMs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m["warn_p50_ms"] = float64(pctOf(sorted, 0.50).Milliseconds())
		m["warn_p99_ms"] = float64(pctOf(sorted, 0.99).Milliseconds())
		m["warn_max_ms"] = float64(pctOf(sorted, 1.0).Milliseconds())
	}

	// Cumulative books.
	m["acked_records"] = float64(len(r.ledger))
	m["pending_unacked"] = float64(len(r.pending))
	m["warnings_produced"] = float64(st.Warnings)
	m["warnings_delivered"] = float64(r.delivered)
	m["dup_deliveries"] = float64(r.dupDeliveries)
	snap := r.reg.Snapshot()
	m["elections"] = float64(snap.Counters["election.count"])
	m["generations"] = float64(snap.Counters["rebalance.generations"])
	m["isr_size"] = float64(snap.Gauges["repl.isr_size"])
	m["priority_gate_refusals"] = float64(r.priorityGateRefusals())

	lost, unverified := r.durabilitySweep()
	m["lost_acked"] = float64(lost)
	m["unverified_acked"] = float64(unverified)

	if missed, ok := r.missedDeliveries(); ok {
		m["missed_deliveries"] = float64(missed)
	}

	var abnormal, warnedAbnormal, ad3Missed int64
	for _, e := range r.ledger {
		if !e.scored || e.truth != core.ClassAbnormal {
			continue
		}
		abnormal++
		if r.warned[e.car][e.ts] {
			warnedAbnormal++
		}
		if !e.ad3Abnormal {
			ad3Missed++
		}
	}
	m["abnormal_truth"] = float64(abnormal)
	if abnormal > 0 {
		m["fn_rate"] = 1 - float64(warnedAbnormal)/float64(abnormal)
		// Live misses minus AD3 misses over the same rows, in one
		// division so equal counts read exactly 0.
		m["fn_vs_ad3"] = float64(abnormal-warnedAbnormal-ad3Missed) / float64(abnormal)
	}
	return m, nil
}

// pctOf reads the q-quantile of sorted millisecond latencies.
func pctOf(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return time.Duration(sorted[i]) * time.Millisecond
}

// priorityGateRefusals sums the OUT-DATA and CO-DATA gate sheds over the
// live brokers: warnings and summaries are never shed, whatever the
// telemetry load.
func (r *scenarioRun) priorityGateRefusals() int64 {
	var n int64
	for _, id := range r.replicaIDs {
		b, alive, err := r.rset.BrokerFor(id)
		if err != nil || !alive {
			continue
		}
		for _, topic := range []string{stream.TopicOutData, stream.TopicCoData} {
			n += b.FlowStats(topic).ShedTotal()
		}
	}
	return n
}

// durabilitySweep reads every acked ledger offset back from the current
// leaders and compares identity. Partitions without a readable leader
// (mid-outage measure) count their rows as unverified, not lost — only a
// readable partition missing an acked record is a durability breach.
func (r *scenarioRun) durabilitySweep() (lost, unverified int) {
	byPart := map[int32]map[int64]ackedRow{}
	for _, e := range r.ledger {
		rows := byPart[e.part]
		if rows == nil {
			rows = map[int64]ackedRow{}
			byPart[e.part] = rows
		}
		rows[e.off] = e
	}
	parts := make([]int32, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	for _, p := range parts {
		want := byPart[p]
		got := map[int64]ackedRow{}
		off := int64(0)
		readable := true
		for {
			msgs, err := r.rset.Fetch(stream.TopicInData, p, off, 512)
			if err != nil {
				readable = false
				break
			}
			if len(msgs) == 0 {
				break
			}
			for i := range msgs {
				if rec, derr := core.DecodeRecord(msgs[i].Value); derr == nil {
					got[msgs[i].Offset] = ackedRow{car: rec.Car, ts: rec.TimestampMs}
				}
				off = msgs[i].Offset + 1
			}
			stream.RecycleMessages(msgs)
		}
		if !readable {
			unverified += len(want)
			continue
		}
		for o, e := range want {
			g, ok := got[o]
			if !ok || g.car != e.car || g.ts != e.ts {
				lost++
			}
		}
	}
	return lost, unverified
}

// missedDeliveries compares the exactly-once book against the OUT-DATA
// high watermarks. Reported only when every partition has a readable
// leader; a leaderless window makes the watermark unknowable, and a
// guessed zero would fake completeness.
func (r *scenarioRun) missedDeliveries() (int64, bool) {
	parts, err := r.rset.Client(stream.AckLeader).PartitionCount(stream.TopicOutData)
	if err != nil {
		return 0, false
	}
	var missed int64
	for p := 0; p < parts; p++ {
		id, _, ok := r.rset.Leader(stream.TopicOutData, int32(p))
		if !ok {
			return 0, false
		}
		b, _, berr := r.rset.BrokerFor(id)
		if berr != nil {
			return 0, false
		}
		hwm, herr := b.HighWaterMark(stream.TopicOutData, int32(p))
		if herr != nil {
			return 0, false
		}
		missed += hwm - int64(len(r.seen[int32(p)]))
	}
	return missed, true
}
