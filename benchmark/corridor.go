package main

import (
	"fmt"
	"time"

	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/rsu"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// Settings shared by the corridor workloads: the wiring cmd/cad3-rsu
// uses, sized so that a 256-record window never meets the flow gate.
const (
	corridorWindow     = 256
	corridorPartitions = 3
	corridorFlowCap    = 4096
	corridorRetained   = 4096
	scenarioCars       = 250
	// scenarioSeed fixes the world — road network, dataset, trained
	// models — so that set-up does the same work on every run (building
	// the scenario takes 65-195 ms depending on its seed). --seed picks
	// what is replayed from it.
	scenarioSeed = 21
)

// corridorWorkload is corridor-saturate and, with remote set,
// corridor-remote-saturate: one generator goroutine in lock step with
// the RSU nodes it steps itself.
//
// corridor-saturate is the paper's testbed. Each lap replays the held-out
// corridor trips: every car's motorway records go to the motorway RSU,
// the motorway RSU hands each car over to the link RSU across a TCP
// neighbour link, then the car's link records go to the link RSU. Both
// nodes sit beside their broker (InProcClient); the generator reaches
// each broker over one TCP connection, batching 256 records a flush and
// polling OUT-DATA on the same connection.
//
// corridor-remote-saturate sends only the link traffic (priors preloaded
// through CO-DATA) and gives the node its own TCP connection to the
// broker, so every fetch and every warning is a wire round trip.
type corridorWorkload struct {
	remote bool

	corp *corpus

	mw, link *rsuSite
	neighbor *stream.TCPClient // motorway node -> link broker
	nodeConn *stream.TCPClient // remote: the link node's own connection

	cur    trace.Record
	encode func(dst []byte) []byte
	epoch  time.Time

	sendFailed     int64 // flushes and adds that errored; a refused record shows as sent but never processed
	pollFailed     int64
	handoverFailed int64
	handovers      int64
	stepErrs       int64

	steps stepStats // traced runs only
}

// rsuSite is one RSU as the generator sees it: the broker, its server,
// the node, and the generator's connection with the producer and the
// warning consumer riding on it.
type rsuSite struct {
	broker *stream.Broker
	srv    *stream.Server
	node   *rsu.Node
	gen    *stream.TCPClient
	bp     *stream.BatchProducer
	out    *stream.Consumer
	buf    []stream.Message
}

func (s *rsuSite) close() {
	if s == nil {
		return
	}
	if s.gen != nil {
		_ = s.gen.Close()
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.broker != nil {
		_ = s.broker.Close()
	}
}

// newSite starts a broker with its TCP server. The node is attached by
// the caller (it differs between the workloads); connect then dials the
// generator's connection.
func newSite() (*rsuSite, error) {
	s := &rsuSite{broker: stream.NewBroker(stream.BrokerConfig{
		FlowCapacity:            corridorFlowCap,
		MaxRetainedPerPartition: corridorRetained,
	})}
	srv, err := stream.NewServer(s.broker, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

func (s *rsuSite) connect() error {
	gen, err := stream.Dial(s.srv.Addr())
	if err != nil {
		return err
	}
	s.gen = gen
	// Flushes are explicit (one per window), so the automatic threshold
	// sits above the window.
	s.bp, err = stream.NewBatchProducer(gen, stream.TopicInData, stream.AutoPartition,
		stream.BatchProducerConfig{FlushEvery: 2 * corridorWindow})
	if err != nil {
		return err
	}
	s.out, err = stream.NewConsumer(gen, stream.TopicOutData, 0)
	return err
}

var toyScenario *experiments.Scenario

// buildScenario trains the fixed scenario. Set-up pays for it every time
// (it is most of setup_s); only the selftest, which runs dozens of toy
// runs in one process, keeps one copy.
func buildScenario(p runParams) (*experiments.Scenario, error) {
	if p.Toy && toyScenario != nil {
		return toyScenario, nil
	}
	sc, err := experiments.BuildScenario(experiments.ScenarioConfig{Cars: scenarioCars, Seed: scenarioSeed})
	if err == nil && p.Toy {
		toyScenario = sc
	}
	return sc, err
}

func (w *corridorWorkload) setup(p runParams) error {
	w.close()
	sc, err := buildScenario(p)
	if err != nil {
		return err
	}
	if w.corp, err = buildCorpus(sc, p.Seed); err != nil {
		return err
	}
	w.encode = func(dst []byte) []byte { return core.AppendRecord(dst, w.cur) }

	if w.link, err = newSite(); err != nil {
		return err
	}
	var linkClient stream.Client = stream.NewInProcClient(w.link.broker)
	if w.remote {
		if w.nodeConn, err = stream.Dial(w.link.srv.Addr()); err != nil {
			return err
		}
		linkClient = w.nodeConn
	}
	w.link.node, err = rsu.New(rsu.Config{
		Name: "link", Road: experiments.CorridorLinkID, Detector: sc.CAD3,
		Client: linkClient, Workers: 1, Partitions: corridorPartitions,
	})
	if err != nil {
		return err
	}
	if err := w.link.connect(); err != nil {
		return err
	}
	if w.remote {
		return preloadPriors(w.link.gen, w.corp, nil)
	}

	if w.mw, err = newSite(); err != nil {
		return err
	}
	w.mw.node, err = rsu.New(rsu.Config{
		Name: "motorway", Road: experiments.CorridorMotorwayID, Detector: sc.Upstream,
		Client: stream.NewInProcClient(w.mw.broker), Workers: 1, Partitions: corridorPartitions,
	})
	if err != nil {
		return err
	}
	if w.neighbor, err = stream.Dial(w.link.srv.Addr()); err != nil {
		return err
	}
	if err := w.mw.node.AddNeighbor("link", w.neighbor); err != nil {
		return err
	}
	return w.mw.connect()
}

// preloadPriors writes the reference summaries to a link RSU's CO-DATA
// topic, as the upstream RSU would have. rekey, when set, maps each
// source car onto the vehicle IDs that replay its records.
func preloadPriors(c stream.Client, corp *corpus, rekey map[trace.CarID][]trace.CarID) error {
	nowMs := time.Now().UnixMilli()
	for _, car := range corp.cars {
		s, ok := corp.priors[car]
		if !ok {
			continue
		}
		ids := []trace.CarID{car}
		if rekey != nil {
			ids = rekey[car]
		}
		for _, id := range ids {
			s.Car = id
			s.UpdatedMs = nowMs
			payload, err := core.EncodeSummary(s)
			if err != nil {
				return err
			}
			key := []byte(fmt.Sprintf("car-%d", id))
			if _, _, err := c.Produce(stream.TopicCoData, stream.AutoPartition, key, payload); err != nil {
				return fmt.Errorf("preload prior for car %d: %w", id, err)
			}
		}
	}
	return nil
}

func (w *corridorWorkload) close() {
	if w.neighbor != nil {
		_ = w.neighbor.Close()
		w.neighbor = nil
	}
	if w.nodeConn != nil {
		_ = w.nodeConn.Close()
		w.nodeConn = nil
	}
	w.mw.close()
	w.link.close()
	w.mw, w.link = nil, nil
}

// endWindow flushes the window's records, steps the node over them and
// collects the warnings it produced.
func (w *corridorWorkload) endWindow(s *rsuSite, chk *checker, lap, win int32, tr *tracer) {
	tr.begin(spanFlush, win)
	err := s.bp.Flush()
	tr.end()
	if err != nil {
		w.sendFailed++
	}
	tr.begin(spanStep, win)
	bs, err := s.node.Step()
	tr.end()
	if err != nil {
		w.stepErrs++
	}
	if tr != nil {
		w.steps.note(bs)
	}
	w.poll(s, chk, lap, win, tr)
}

func (w *corridorWorkload) poll(s *rsuSite, chk *checker, lap, win int32, tr *tracer) {
	tr.begin(spanPoll, win)
	msgs, err := s.out.PollInto(s.buf[:0], 4096)
	tr.end()
	s.buf = msgs
	if err != nil {
		w.pollFailed++
	}
	chk.onMessages(msgs, lap, int64(time.Since(w.epoch)))
}

// phase sends records [lo,hi) of the corpus to one site in windows.
func (w *corridorWorkload) phase(s *rsuSite, lo, hi int, want int, chk *checker, lap int32, win *int32, tr *tracer) {
	off := int64(lap) * w.corp.lapSpanMs
	inWindow := 0
	for i := lo; i < hi; i++ {
		w.cur = w.corp.recs[i]
		w.cur.TimestampMs += off
		if w.corp.expect[i] {
			chk.sentNs[i] = int64(time.Since(w.epoch))
		}
		tr.begin(spanSend, *win)
		err := s.bp.AddPooled(w.corp.keys[i], w.encode)
		tr.end()
		if err != nil {
			w.sendFailed++
		}
		if inWindow++; inWindow == corridorWindow {
			w.endWindow(s, chk, lap, *win, tr)
			inWindow = 0
			*win++
		}
	}
	if inWindow > 0 {
		w.endWindow(s, chk, lap, *win, tr)
		*win++
	}
	// Lock step: every warning of the phase is in the broker by now; a
	// few more polls only guard against a short read.
	for tries := 0; chk.lapGot < want && tries < 4; tries++ {
		w.poll(s, chk, lap, *win, tr)
	}
}

// lap replays the corpus once and returns how many records it sent.
func (w *corridorWorkload) lap(lap int32, win *int32, chk *checker, tr *tracer) int {
	c := w.corp
	tr.begin(spanLap, *win)
	defer tr.end()
	if w.remote {
		w.phase(w.link, c.nMw, len(c.recs), c.expectLink, chk, lap, win, tr)
		chk.endLap(c.expectLink)
		return len(c.recs) - c.nMw
	}
	w.phase(w.mw, 0, c.nMw, c.expectMw, chk, lap, win, tr)
	for _, car := range c.cars {
		tr.begin(spanHandover, *win)
		err := w.mw.node.Handover(car, "link")
		tr.end()
		w.handovers++
		if err != nil {
			w.handoverFailed++
		}
	}
	w.phase(w.link, c.nMw, len(c.recs), c.expectMw+c.expectLink, chk, lap, win, tr)
	chk.endLap(c.expectMw + c.expectLink)
	return len(c.recs)
}

func (w *corridorWorkload) nodes() []*rsu.Node {
	if w.remote {
		return []*rsu.Node{w.link.node}
	}
	return []*rsu.Node{w.mw.node, w.link.node}
}

func (w *corridorWorkload) run(p runParams, tr *tracer) (*result, error) {
	name := "corridor-saturate"
	if w.remote {
		name = "corridor-remote-saturate"
	}
	w.epoch = time.Now()
	chk := newChecker(w.corp)
	loop := &closedLoop{
		chk: chk,
		lap: func(lap int32, win *int32, tr *tracer) int { return w.lap(lap, win, chk, tr) },
		exact: func(m map[string]float64) {
			for _, n := range w.nodes() {
				st := n.Stats()
				m["rsu.records"] += float64(st.Records)
				m["rsu.warnings"] += float64(st.Warnings)
			}
		},
	}
	res := loop.run(name, p, tr)

	// Output checks beyond the warning multiset.
	var processed, detectErrs int64
	for _, n := range w.nodes() {
		st := n.Stats()
		processed += st.Records
		detectErrs += st.DetectErrors
	}
	if detectErrs != 0 {
		res.hard(fmt.Sprintf("DetectErrors = %d, want 0", detectErrs))
	}
	if processed != loop.sentTotal {
		res.Failed += abs64(loop.sentTotal - processed)
		res.hard(fmt.Sprintf("nodes processed %d records, generator sent %d", processed, loop.sentTotal))
	}
	res.Attempted += w.handovers
	res.Failed += w.sendFailed + w.pollFailed + w.handoverFailed + w.stepErrs

	if p.Trace {
		m := res.Metrics
		records := float64(loop.tracedRecords)
		if records > 0 {
			m["rsu.step_ns"] = float64(tr.agg[spanStep].total) / records
			m["vehicle.send_ns"] = tr.meanNs(spanSend)
		}
		w.steps.fill(m)
		m["rsu.handover_us"] = tr.medianNs(spanHandover) / 1e3
		m["vehicle.flush_us"] = tr.medianNs(spanFlush) / 1e3
		m["vehicle.poll_us"] = tr.medianNs(spanPoll) / 1e3
		var in, out, backlog int64
		for _, s := range []*rsuSite{w.mw, w.link} {
			if s == nil {
				continue
			}
			st := s.node.Stats()
			m["rsu.prior_hits"] += float64(st.PriorHits)
			m["rsu.prior_misses"] += float64(st.PriorMisses)
			m["rsu.summaries_received"] += float64(st.SummariesReceived)
			in += s.broker.BytesIn()
			out += s.broker.BytesOut()
			backlog += s.broker.FlowStats(stream.TopicInData).Occupancy
		}
		if loop.sentTotal > 0 {
			m["stream.bytes_in"] = float64(in) / float64(loop.sentTotal)
			m["stream.bytes_out"] = float64(out) / float64(loop.sentTotal)
		}
		m["stream.retries"] = float64(w.sendFailed)
		m["stream.backlog_end"] = float64(backlog)
	}
	return res, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
