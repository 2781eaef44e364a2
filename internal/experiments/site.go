package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"cad3/internal/core"
	"cad3/internal/metrics"
	"cad3/internal/netem"
	"cad3/internal/obsv"
	"cad3/internal/rsu"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// simStart is the virtual instant every site run starts at (the Shenzhen
// dataset's morning).
var simStart = time.Date(2016, 7, 4, 8, 0, 0, 0, time.UTC)

// site is one emulated RSU site on the netem virtual clock, the substrate
// of Figure 6: vehicles send 200 B records over the DSRC medium into the
// site's broker, a real rsu.Node steps every batch interval, and one
// shared consumer standing in for the vehicles' listeners disseminates
// warnings every poll interval.
//
// The node detects; the site only charges time. Each batch's warnings are
// held until the batch's modeled processing cost (ProcessingModel) has
// passed on the simulator clock, which replaces the node's own measured
// microseconds, and each delivered warning pays a sampled fetch overhead
// (DisseminationModel).
type site struct {
	sim    *netem.Simulator
	rng    *rand.Rand
	cfg    LatencyConfig
	end    time.Time
	medium *netem.Medium
	broker *stream.Broker
	node   *rsu.Node
	out    *stream.Consumer // the node's OUT-DATA, read right after each step

	arrivals map[warnKey]time.Time // broker append time per record
	ready    []heldWarning         // processed warnings awaiting the poll
	recorder *metrics.LatencyRecorder
	live     *metrics.BreakdownAccumulator
	warnings int64
	err      error // the first failure; a sim callback cannot abort the run
}

// warnKey names one record and the warning it raised.
type warnKey struct {
	car trace.CarID
	ts  int64
}

// heldWarning is a warning between detection and delivery: its breakdown
// so far, the instant dissemination is measured from, and its trace.
type heldWarning struct {
	lb       metrics.LatencyBreakdown
	detected time.Time
	tc       obsv.TraceContext
}

// newSite builds a site of cfg.Vehicles vehicles, cars firstCar on, and
// schedules their sends. cfg must have its defaults applied; cfg.Seed
// seeds the medium. Each vehicle draws its send offset, then its place in
// the record pool, from rng.
func newSite(sim *netem.Simulator, rng *rand.Rand, name string, cfg LatencyConfig, firstCar trace.CarID) (*site, error) {
	start := sim.Now()
	htb, err := netem.NewHTB(netem.DSRCBandwidthBps, start)
	if err != nil {
		return nil, err
	}
	medium, err := netem.NewMedium(netem.MediumConfig{MCS: cfg.MCS, HTB: htb, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	broker := stream.NewBroker(stream.BrokerConfig{Now: sim.Now})
	client := stream.NewInProcClient(broker)
	node, err := rsu.New(rsu.Config{
		Name:          name,
		Road:          CorridorLinkID,
		Detector:      cfg.Detector,
		Client:        client,
		BatchInterval: cfg.BatchInterval,
		Workers:       1,
		MaxBatch:      1 << 16,
		Now:           sim.Now,
	})
	if err != nil {
		return nil, err
	}
	out, err := stream.NewConsumer(client, stream.TopicOutData, 0)
	if err != nil {
		return nil, err
	}
	s := &site{
		sim: sim, rng: rng, cfg: cfg, end: start.Add(cfg.Duration),
		medium: medium, broker: broker, node: node, out: out,
		arrivals: make(map[warnKey]time.Time),
		recorder: metrics.NewLatencyRecorder(),
		live:     metrics.NewBreakdownAccumulator(),
	}
	for v := 0; v < cfg.Vehicles; v++ {
		class := fmt.Sprintf("veh-%d", v+1)
		if err := htb.AddClass(class, netem.PerVehicleFloorBps, 0); err != nil {
			return nil, err
		}
		offset := time.Duration(rng.Int63n(int64(cfg.SendInterval)))
		idx := rng.Intn(len(cfg.Records))
		s.drive(firstCar+trace.CarID(v), class, idx, offset)
	}
	return s, nil
}

// drive schedules one vehicle's send loop: every SendInterval until the
// end, the next pool record, stamped with the car and the send time. The
// trace context rides the frame's padding; StageSent uses the record's own
// (ms-truncated) timestamp so the live Tx matches the offline one.
func (s *site) drive(car trace.CarID, class string, idx int, offset time.Duration) {
	var tick func()
	tick = func() {
		now := s.sim.Now()
		if now.After(s.end) {
			return
		}
		rec := s.cfg.Records[idx%len(s.cfg.Records)]
		idx++
		rec.Car = car
		rec.TimestampMs = now.UnixMilli()
		var tc obsv.TraceContext
		tc.Stamp(obsv.StageSent, time.UnixMilli(rec.TimestampMs))
		payload := core.AppendRecordTraced(make([]byte, 0, core.RecordWireSize), rec, tc)
		if delivered, err := s.medium.Transmit(class, len(payload), now); err == nil {
			k := warnKey{car: rec.Car, ts: rec.TimestampMs}
			s.sim.At(delivered, func() {
				if _, _, err := s.broker.Produce(stream.TopicInData, stream.AutoPartition, nil, payload); err != nil {
					s.fail(fmt.Errorf("produce: %w", err))
					return
				}
				s.arrivals[k] = s.sim.Now()
			})
		}
		s.sim.After(s.cfg.SendInterval, tick)
	}
	s.sim.After(offset, tick)
}

// start schedules the node's micro-batch loop, then the dissemination
// poll, whose first tick is pollPhase after the first poll interval.
func (s *site) start(pollPhase time.Duration) {
	s.sim.After(s.cfg.BatchInterval, s.step)
	s.sim.After(s.cfg.PollInterval+pollPhase, s.poll)
}

func (s *site) fail(err error) {
	if s.err == nil {
		s.err = fmt.Errorf("%s: %w", s.node.Name(), err)
	}
}

// step runs one node round at the current instant T. The batch's warnings
// are read back at once and held until done = T + the modeled cost of the
// batch; Tx and Queue come from the record's arrival and T.
func (s *site) step() {
	now := s.sim.Now()
	if now.After(s.end) {
		return
	}
	defer s.sim.After(s.cfg.BatchInterval, s.step)
	bs, err := s.node.Step()
	if err != nil {
		s.fail(fmt.Errorf("step: %w", err))
	}
	if bs.Records == 0 {
		return
	}
	cost := s.cfg.Proc.Cost(bs.Records)
	done := now.Add(cost)
	detected := time.UnixMilli(done.UnixMilli())
	var held []heldWarning
	if _, err := s.out.PollEach(1<<16, func(m stream.Message) {
		w, err := core.DecodeWarning(m.Value)
		if err != nil {
			s.fail(fmt.Errorf("warning: %w", err))
			return
		}
		k := warnKey{car: w.Car, ts: w.SourceTsMs}
		arr, ok := s.arrivals[k]
		if !ok {
			s.fail(fmt.Errorf("warning for car %d at %d ms: record never arrived", w.Car, w.SourceTsMs))
			return
		}
		delete(s.arrivals, k)
		h := heldWarning{
			lb:       metrics.LatencyBreakdown{Tx: arr.Sub(time.UnixMilli(w.SourceTsMs)), Queue: now.Sub(arr), Processing: cost},
			detected: detected,
		}
		// The node stamped Dequeue and Detect at T; the modeled processing
		// replaces its measured time, so detection completes at done.
		if tc, traced := core.WarningTrace(m.Value); traced {
			tc.Stamp(obsv.StageDetect, done)
			h.tc = tc
		}
		held = append(held, h)
	}); err != nil {
		s.fail(fmt.Errorf("warnings: %w", err))
	}
	if len(held) > 0 {
		s.sim.At(done, func() { s.ready = append(s.ready, held...) })
	}
}

// poll delivers every processed warning: dissemination runs from the
// detection instant to this poll plus one sampled fetch overhead, which
// also lands the live trace's delivery stamp.
func (s *site) poll() {
	now := s.sim.Now()
	if now.After(s.end.Add(200 * time.Millisecond)) { // drain tail
		return
	}
	for _, h := range s.ready {
		ds := s.cfg.Diss.sample(s.rng)
		h.lb.Dissemination = now.Sub(h.detected) + ds
		s.recorder.Record(h.lb)
		s.warnings++
		if h.tc.Valid() {
			h.tc.Stamp(obsv.StageDeliver, now.Add(ds))
			if bd, complete := h.tc.Breakdown(); complete {
				s.live.Observe(bd)
			}
		}
	}
	s.ready = s.ready[:0]
	s.sim.After(s.cfg.PollInterval, s.poll)
}

// uplinkBps is the site's received telemetry bandwidth over the run.
func (s *site) uplinkBps() float64 {
	return float64(s.medium.Stats().WireBytes) * 8 / s.cfg.Duration.Seconds()
}
