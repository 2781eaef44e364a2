// Package rsu assembles the CAD3 edge node: a roadside unit co-located
// with compute that ingests vehicle telemetry from its IN-DATA topic in
// 50 ms micro-batches, runs the detection model, writes warnings to
// OUT-DATA, accumulates per-vehicle prediction summaries, and forwards
// them to the next RSU's CO-DATA topic on vehicle handover (Figures 3-4
// of the paper).
//
// The node talks to its broker once per micro-batch in each direction, as
// the paper's Spark job does: a poll reads every partition in one round
// (stream.Consumer.PollEach, which lends each record to the decoder where
// it lies instead of copying it out) and each engine worker writes the
// warnings its records raised in one stream.Producer.SendBatch. A car's warnings
// keep their order (one key, one partition, a batch appends in order), and
// only warnings the broker acknowledged count.
package rsu

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cad3/internal/core"
	"cad3/internal/flow"
	"cad3/internal/geo"
	"cad3/internal/microbatch"
	"cad3/internal/obsv"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// DefaultShedSafePNormal is the prior mean P(normal) at or above which a
// vehicle's stale telemetry counts as low-risk for degraded-mode
// shedding: the forwarded summary says the car has been behaving.
const DefaultShedSafePNormal = 0.5

// degradedAfter is how many consecutive saturated batches (full drains —
// the node cannot keep up) flip the node into degraded mode. One
// unsaturated batch clears it.
const degradedAfter = 2

// Errors callers match.
var (
	ErrNoDetector = errors.New("rsu: config requires a trained detector")
	ErrNoClient   = errors.New("rsu: config requires a broker client")
	ErrNoNeighbor = errors.New("rsu: unknown neighbor")
)

// Config configures a Node.
type Config struct {
	// Name identifies the node in logs and stats (e.g. "Mw R1").
	Name string
	// Road is the covered road segment.
	Road geo.SegmentID
	// Detector is the trained detection model. Required.
	Detector core.Detector
	// Client reaches this node's broker. Required.
	Client stream.Client
	// BatchInterval is the micro-batch window (paper: 50 ms). Values
	// <= 0 select microbatch.DefaultInterval.
	BatchInterval time.Duration
	// Workers is the engine parallelism (paper: 6). Values <= 0 select 6.
	Workers int
	// MaxBatch bounds messages drained per micro-batch. Values <= 0 select
	// the engine default (8192).
	MaxBatch int
	// Now injects the clock (virtual time in simulation). Nil selects
	// time.Now.
	Now func() time.Time
	// Partitions is the per-topic partition count. Values <= 0 select
	// stream.DefaultPartitions.
	Partitions int
	// Logger receives structured operational events (warnings produced,
	// handovers, degraded batches). Nil discards them.
	Logger *slog.Logger
	// Metrics is the node's observability registry: pipeline stage
	// histograms, engine counters, and gauge views over the node stats,
	// served by the -debug-addr endpoint and persisted in checkpoints.
	// Nil creates a private registry (Registry exposes it).
	Metrics *obsv.Registry
	// BatchSLO enables adaptive micro-batch sizing: the engine's drain
	// bound is AIMD-controlled toward this per-batch processing-time
	// objective (flow.BatchController) instead of the fixed cap. Zero
	// keeps the fixed bound.
	BatchSLO time.Duration
	// ShedStaleAfter enables node-level degraded-mode admission: once the
	// node is degraded (two saturated batches in a row), telemetry older
	// than this whose sender's forwarded summary reads low-risk (prior mean
	// P(normal) >= DefaultShedSafePNormal) is shed before detection — the
	// stale sample's information is already superseded and the vehicle has
	// no history of abnormality. Warnings and summaries are never touched
	// (they ride separate topics). Zero disables shedding.
	ShedStaleAfter time.Duration
}

// Stats summarises a node's activity.
type Stats struct {
	Records           int64
	Warnings          int64
	SummariesSent     int64
	SummariesReceived int64
	PriorHits         int64
	PriorMisses       int64
	DetectErrors      int64
	// Fallbacks counts detections a collaborative (CAD3) detector ran
	// without a prior — the degraded AD3-equivalent path. Non-collaborative
	// detectors never count.
	Fallbacks int64
	// DroppedHandovers counts summaries lost because the neighbor's
	// CO-DATA produce failed (partition, dead broker).
	DroppedHandovers int64
	// ShedStale counts telemetry records the node's degraded-mode
	// admission shed before detection (stale + low-risk only).
	ShedStale int64
	// DegradedRounds counts batches processed while degraded.
	DegradedRounds int64
	// Degraded reports whether the node is currently in degraded mode.
	Degraded bool
	// SummaryStore exposes the store's hit/miss/expired lookups; Expired
	// is the silent stale-summary degradation.
	SummaryStore core.SummaryStoreStats
	Engine       microbatch.EngineStats
}

// DegradedStats isolates the degraded-mode counters cad3-rsu's /health
// endpoint reports.
type DegradedStats struct {
	Fallbacks        int64
	StaleSummaries   int64
	DroppedHandovers int64
	ShedStale        int64
}

// DegradedCounters returns the node's degraded-mode counters.
func (s Stats) DegradedCounters() DegradedStats {
	return DegradedStats{
		Fallbacks:        s.Fallbacks,
		StaleSummaries:   s.SummaryStore.Expired,
		DroppedHandovers: s.DroppedHandovers,
		ShedStale:        s.ShedStale,
	}
}

// tracedRecord is the engine item type: the decoded record plus its wire
// trace context (zero when the payload was untraced or JSON — the
// pipeline runs identically, just unobserved).
type tracedRecord struct {
	rec trace.Record
	tc  obsv.TraceContext
}

// Node is one deployed RSU.
type Node struct {
	cfg    Config
	engine *microbatch.Engine[tracedRecord]

	inConsumer  *stream.Consumer
	outProducer *stream.Producer
	coConsumer  *stream.Consumer
	// takeSummary is putSummary, bound once for the CO-DATA drain.
	takeSummary func(stream.Message)

	summaries *core.SummaryStore
	builder   *core.SummaryBuilder
	profile   *RoadProfile
	// collab marks detectors that fuse a forwarded prior (CAD3):
	// detections without one are degraded-mode fallbacks.
	collab bool

	mu        sync.Mutex
	neighbors map[string]*stream.Producer

	records      atomic.Int64
	warnings     atomic.Int64
	sentSumm     atomic.Int64
	recvSumm     atomic.Int64
	priorHits    atomic.Int64
	priorMisses  atomic.Int64
	detectErrors atomic.Int64
	fallbacks    atomic.Int64
	dropped      atomic.Int64

	// Degraded-mode admission state: consecutive saturated batches,
	// whether the node currently sheds, and the shed accounting.
	saturatedRuns  atomic.Int64
	degraded       atomic.Bool
	shedStale      atomic.Int64
	degradedRounds atomic.Int64

	// Observability: batch sequence for trace batch IDs, the recent-trace
	// ring behind /trace/recent, and cached histogram handles for the
	// per-record stage observations.
	batchSeq                    atomic.Uint64
	ring                        *obsv.TraceRing
	histTx, histQueue, histProc *obsv.Histogram
}

// warnBatch is one processRecords call's scratch, pooled because the
// engine calls processRecords from several workers at once. Per record it
// holds the car and the prior the summary store resolved for it (the
// detector gets a pointer into priors: a pointer to a local would escape
// through the Detector interface, a heap object per record); per detection,
// the (car, p) pair for the summary builder; per warning, what the flush
// and the bookkeeping after it need. At the flush each warning's key and
// encoded value go back to back into one arena the batch owns, and the
// records for the producer and the broker's answers are made from it.
type warnBatch struct {
	cars   []trace.CarID
	priors []core.PredictionSummary
	found  []bool
	obs    []core.Observation

	meta  []warnMeta
	arena []byte
	recs  []stream.BatchRecord
	res   []stream.BatchResult
}

type warnMeta struct {
	w         core.Warning
	tc        obsv.TraceContext // not Valid for an untraced record
	key, size int               // the warning's arena bytes once encoded: key, then value up to size
}

var warnBatches = sync.Pool{New: func() any { return new(warnBatch) }}

// add queues one warning for the flush.
func (wb *warnBatch) add(w core.Warning, tc obsv.TraceContext) {
	wb.meta = append(wb.meta, warnMeta{w: w, tc: tc})
}

// lookupPriors resolves every record's prior in one store call.
func (wb *warnBatch) lookupPriors(store *core.SummaryStore, records []tracedRecord, now time.Time) {
	wb.cars = wb.cars[:0]
	for i := range records {
		wb.cars = append(wb.cars, records[i].rec.Car)
	}
	wb.priors = slices.Grow(wb.priors[:0], len(records))[:len(records)]
	wb.found = slices.Grow(wb.found[:0], len(records))[:len(records)]
	store.GetBatch(wb.cars, now, wb.priors, wb.found)
}

// encode writes every queued warning into the arena under its car's key. A
// traced record's warning is a traced warning, so the context survives
// into dissemination and the vehicle can complete the breakdown.
func (wb *warnBatch) encode() {
	for i := range wb.meta {
		m := &wb.meta[i]
		at := len(wb.arena)
		wb.arena = appendCarKey(wb.arena, m.w.Car)
		m.key = len(wb.arena) - at
		if m.tc.Valid() {
			wb.arena = core.AppendWarningTraced(wb.arena, m.w, m.tc)
		} else {
			wb.arena = core.AppendWarning(wb.arena, m.w)
		}
		m.size = len(wb.arena) - at
	}
}

// collaborativeDetector marks detectors whose accuracy depends on the
// forwarded prior (satisfied by *core.CAD3 via its fusion weight).
type collaborativeDetector interface {
	Weight() float64
}

// New creates the node, provisioning its three topics on the broker.
func New(cfg Config) (*Node, error) {
	if cfg.Detector == nil {
		return nil, ErrNoDetector
	}
	if cfg.Client == nil {
		return nil, ErrNoClient
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = stream.DefaultPartitions
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	for _, topic := range []string{stream.TopicInData, stream.TopicOutData, stream.TopicCoData} {
		if err := cfg.Client.CreateTopic(topic, cfg.Partitions); err != nil {
			return nil, fmt.Errorf("rsu %s: create %s: %w", cfg.Name, topic, err)
		}
	}
	inConsumer, err := stream.NewConsumer(cfg.Client, stream.TopicInData, 0)
	if err != nil {
		return nil, fmt.Errorf("rsu %s: in consumer: %w", cfg.Name, err)
	}
	coConsumer, err := stream.NewConsumer(cfg.Client, stream.TopicCoData, 0)
	if err != nil {
		return nil, fmt.Errorf("rsu %s: co consumer: %w", cfg.Name, err)
	}
	outProducer, err := stream.NewProducer(cfg.Client, stream.TopicOutData)
	if err != nil {
		return nil, fmt.Errorf("rsu %s: out producer: %w", cfg.Name, err)
	}

	_, collab := cfg.Detector.(collaborativeDetector)
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.NewRegistry()
	}
	n := &Node{
		cfg:         cfg,
		inConsumer:  inConsumer,
		outProducer: outProducer,
		coConsumer:  coConsumer,
		summaries:   core.NewSummaryStore(core.DefaultSummaryTTL, cfg.Now),
		builder:     core.NewSummaryBuilder(int64(cfg.Road), cfg.Now),
		profile:     NewRoadProfile(0, 0, cfg.Now),
		collab:      collab,
		neighbors:   make(map[string]*stream.Producer),
		ring:        obsv.NewTraceRing(obsv.DefaultTraceRingSize),
		histTx:      cfg.Metrics.Histogram("pipeline.tx_micros", nil),
		histQueue:   cfg.Metrics.Histogram("pipeline.queue_micros", nil),
		histProc:    cfg.Metrics.Histogram("pipeline.process_micros", nil),
	}
	n.takeSummary = n.putSummary
	n.registerGauges()
	var adaptive *flow.BatchController
	if cfg.BatchSLO > 0 {
		adaptive = flow.NewBatchController(flow.BatchControllerConfig{
			SLO:     cfg.BatchSLO,
			Metrics: cfg.Metrics,
			Name:    "flow.node",
		})
	}
	engine, err := microbatch.NewEngine(microbatch.Config[tracedRecord]{
		Source:   inConsumer,
		Decode:   n.decodeRecord,
		Process:  n.processRecords,
		Interval: cfg.BatchInterval,
		Workers:  cfg.Workers,
		MaxBatch: cfg.MaxBatch,
		Now:      cfg.Now,
		Metrics:  cfg.Metrics,
		Adaptive: adaptive,
	})
	if err != nil {
		return nil, fmt.Errorf("rsu %s: engine: %w", cfg.Name, err)
	}
	n.engine = engine
	return n, nil
}

// decodeRecord is the engine's decode hook: it parses the record, lifts
// the trace context out of the frame padding (absent for JSON/untraced
// payloads), tags it with the current batch, and stamps StageDequeue —
// the moment the record left the broker queue for processing.
func (n *Node) decodeRecord(m stream.Message) (tracedRecord, error) {
	rec, err := core.DecodeRecord(m.Value)
	if err != nil {
		return tracedRecord{}, err
	}
	tr := tracedRecord{rec: rec}
	if tc, ok := core.RecordTrace(m.Value); ok {
		tc.BatchID = n.batchSeq.Load()
		tc.Stamp(obsv.StageDequeue, n.cfg.Now())
		tr.tc = tc
	}
	return tr, nil
}

// registerGauges exposes the node's existing atomic stats through the
// registry as snapshot-time gauges, so /metrics reports them without any
// double accounting on the hot path. The rsu.* names are cumulative
// (monotonic) despite the gauge transport; see OBSERVABILITY.md.
func (n *Node) registerGauges() {
	m := n.cfg.Metrics
	m.RegisterGaugeFunc("rsu.records", n.records.Load)
	m.RegisterGaugeFunc("rsu.warnings", n.warnings.Load)
	m.RegisterGaugeFunc("rsu.detect_errors", n.detectErrors.Load)
	m.RegisterGaugeFunc("rsu.prior_hits", n.priorHits.Load)
	m.RegisterGaugeFunc("rsu.prior_misses", n.priorMisses.Load)
	m.RegisterGaugeFunc("rsu.fallbacks", n.fallbacks.Load)
	m.RegisterGaugeFunc("rsu.summaries_sent", n.sentSumm.Load)
	m.RegisterGaugeFunc("rsu.summaries_received", n.recvSumm.Load)
	m.RegisterGaugeFunc("rsu.dropped_handovers", n.dropped.Load)
	m.RegisterGaugeFunc("rsu.tracked_cars", func() int64 { return int64(n.builder.Cars()) })
	m.RegisterGaugeFunc("rsu.stored_summaries", func() int64 { return int64(n.summaries.Len()) })
	// flow.node.* rides the same registry, so the shed accounting persists
	// through checkpoints and serves on /metrics like everything else.
	m.RegisterGaugeFunc("flow.node.shed_stale", n.shedStale.Load)
	m.RegisterGaugeFunc("flow.node.degraded_rounds", n.degradedRounds.Load)
	m.RegisterGaugeFunc("flow.node.degraded", func() int64 {
		if n.degraded.Load() {
			return 1
		}
		return 0
	})
}

// Name returns the node's configured name.
func (n *Node) Name() string { return n.cfg.Name }

// Road returns the covered segment.
func (n *Node) Road() geo.SegmentID { return n.cfg.Road }

// AddNeighbor registers an adjacent RSU reachable through the given
// client: summaries for handovers toward it are produced to its CO-DATA
// topic (after ensuring the topic exists).
func (n *Node) AddNeighbor(name string, client stream.Client) error {
	if client == nil {
		return ErrNoClient
	}
	if err := client.CreateTopic(stream.TopicCoData, n.cfg.Partitions); err != nil {
		return fmt.Errorf("rsu %s: neighbor %s topic: %w", n.cfg.Name, name, err)
	}
	p, err := stream.NewProducer(client, stream.TopicCoData)
	if err != nil {
		return fmt.Errorf("rsu %s: neighbor %s producer: %w", n.cfg.Name, name, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.neighbors[name] = p
	return nil
}

// processRecords is the engine's worker callback, one worker's share of a
// micro-batch in three passes. Nothing shared is touched per record: each
// shared structure is locked once, each counter added once, and the whole
// call reads the clock once — profile buckets, summary freshness, shedding
// and warning times all judge against that reading. Every record still
// sees exactly what a record-at-a-time loop would show it.
func (n *Node) processRecords(records []tracedRecord) error {
	wb := warnBatches.Get().(*warnBatch)
	now := n.cfg.Now()

	// Pass 1: the road's rolling speed profile, and the road-mean-speed
	// context for records that arrive without one.
	n.profile.fold(records, now)

	// Pass 2: every record's forwarded prior.
	wb.lookupPriors(n.summaries, records, now)

	// Pass 3: shed, detect, and collect each detection's (car, p) pair and
	// each warning.
	var firstErr error
	var hits, misses, shed, detectErrs int64
	shedding := n.cfg.ShedStaleAfter > 0 && n.degraded.Load()
	for i := range records {
		tr := &records[i]
		rec := &tr.rec
		var prior *core.PredictionSummary
		if wb.found[i] {
			prior = &wb.priors[i]
		}

		// Degraded-mode admission: shed stale telemetry from known
		// well-behaved vehicles before the detector runs. Prior hit/miss
		// accounting covers processed records only.
		if shedding && n.shouldShed(rec, prior, now) {
			shed++
			continue
		}
		if prior != nil {
			hits++
		} else {
			misses++
		}

		det, err := n.cfg.Detector.Detect(*rec, prior)
		if err != nil {
			detectErrs++
			if firstErr == nil {
				firstErr = fmt.Errorf("detect car %d: %w", rec.Car, err)
			}
			continue
		}

		// Close the processing span and observe the stage latencies the
		// trace has accumulated so far (Tx from the broker's arrival
		// stamp, Queue from the engine's dequeue stamp). Untraced records
		// skip all of this — two branches, no allocation either way.
		tc := tr.tc
		if tc.Valid() {
			tc.Stamp(obsv.StageDetect, n.cfg.Now())
			if tc.ArriveMicro >= tc.SentMicro && tc.SentMicro != 0 {
				n.histTx.Observe(tc.ArriveMicro - tc.SentMicro)
			}
			if tc.DequeueMicro >= tc.ArriveMicro && tc.ArriveMicro != 0 {
				n.histQueue.Observe(tc.DequeueMicro - tc.ArriveMicro)
			}
			if tc.DetectMicro >= tc.DequeueMicro && tc.DequeueMicro != 0 {
				n.histProc.Observe(tc.DetectMicro - tc.DequeueMicro)
			}
		}

		wb.obs = append(wb.obs, core.Observation{Car: rec.Car, PNormal: det.PNormal})
		if det.Abnormal() {
			wb.add(core.Warning{
				Car:          rec.Car,
				Road:         int64(rec.Road),
				PNormal:      det.PNormal,
				SourceTsMs:   rec.TimestampMs,
				DetectedTsMs: now.UnixMilli(),
			}, tc)
		}
	}

	n.builder.ObserveBatch(wb.obs)
	wb.obs = wb.obs[:0]
	n.records.Add(int64(len(records)))
	n.priorHits.Add(hits)
	n.priorMisses.Add(misses)
	if n.collab {
		// CAD3 without a prior collapses to AD3 — the degraded mode
		// DegradedCounters reports.
		n.fallbacks.Add(misses)
	}
	n.shedStale.Add(shed)
	n.detectErrors.Add(detectErrs)

	if err := n.flushWarnings(wb); err != nil && firstErr == nil {
		firstErr = err
	}
	warnBatches.Put(wb)
	return firstErr
}

// flushWarnings writes the batch to OUT-DATA in one producer call and
// settles each warning against the broker's answer: an acknowledged one is
// counted, pushed to the trace ring and logged; a refused one — every one,
// if the call itself failed — is not, and the first is returned. The broker
// has copied what it kept, so the arena is empty again either way.
func (n *Node) flushWarnings(wb *warnBatch) error {
	if len(wb.meta) == 0 {
		return nil
	}
	wb.encode()
	at := 0
	for _, m := range wb.meta {
		w := wb.arena[at : at+m.size : at+m.size]
		wb.recs = append(wb.recs, stream.BatchRecord{Key: w[:m.key:m.key], Value: w[m.key:]})
		at += m.size
	}
	wb.res = append(wb.res[:0], make([]stream.BatchResult, len(wb.recs))...)
	batchErr := n.outProducer.SendBatch(wb.recs, wb.res)
	var firstErr error
	var acked int64
	debug := n.logs(slog.LevelDebug)
	for i, m := range wb.meta {
		err := batchErr
		if err == nil {
			err = wb.res[i].Err
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("warn car %d: %w", m.w.Car, err)
			}
			continue
		}
		acked++
		if m.tc.Valid() {
			n.ring.PushContext(int64(m.w.Car), m.w.Road, m.tc, n.cfg.Now())
		}
		if debug {
			n.cfg.Logger.Debug("warning produced",
				"rsu", n.cfg.Name, "car", int64(m.w.Car),
				"road", m.w.Road, "pNormal", m.w.PNormal)
		}
	}
	n.warnings.Add(acked)
	clear(wb.recs)
	wb.arena, wb.meta, wb.recs = wb.arena[:0], wb.meta[:0], wb.recs[:0]
	return firstErr
}

// logs reports whether the logger keeps records at level. The node asks
// before a log call on a per-warning or per-handover path, whose arguments
// are boxed even when the handler discards them.
func (n *Node) logs(level slog.Level) bool {
	return n.cfg.Logger.Enabled(context.Background(), level)
}

// appendCarKey appends the partitioning key for a car ("car-<id>") without
// the fmt machinery.
//
//cad3:noalloc
func appendCarKey(dst []byte, car trace.CarID) []byte {
	dst = append(dst, "car-"...)
	return strconv.AppendInt(dst, int64(car), 10)
}

// Step runs one pipeline round synchronously: drain received CO-DATA
// summaries, then process one micro-batch. The discrete-event simulator
// and the tests drive nodes this way.
func (n *Node) Step() (microbatch.BatchStats, error) {
	n.batchSeq.Add(1) // trace batch ID for every record decoded this round
	if err := n.drainSummaries(); err != nil && !errors.Is(err, stream.ErrPartitionDown) {
		return microbatch.BatchStats{}, err
	}
	bs, err := n.engine.Step()
	n.observeSaturation(bs)
	return bs, err
}

// observeSaturation tracks consecutive full-drain batches and flips the
// node's degraded-mode flag: a node that keeps draining its full bound has
// a backlog it cannot clear, so stale low-risk telemetry becomes sheddable
// until one batch comes up short.
func (n *Node) observeSaturation(bs microbatch.BatchStats) {
	if n.cfg.ShedStaleAfter <= 0 {
		return
	}
	if !bs.Saturated {
		n.saturatedRuns.Store(0)
		if n.degraded.CompareAndSwap(true, false) {
			n.cfg.Logger.Info("degraded mode cleared", "rsu", n.cfg.Name)
		}
		return
	}
	if n.degraded.Load() {
		n.degradedRounds.Add(1)
		return
	}
	if n.saturatedRuns.Add(1) >= degradedAfter {
		if n.degraded.CompareAndSwap(false, true) {
			n.degradedRounds.Add(1)
			n.cfg.Logger.Warn("degraded mode entered",
				"rsu", n.cfg.Name, "saturatedBatches", degradedAfter)
		}
	}
}

// shouldShed implements the node-level degraded-mode admission decision
// for one telemetry record of a degraded node: shed only when the record
// is stale as of now and the vehicle's own forwarded summary says it has
// been behaving. Vehicles without a summary are never shed — absence of
// evidence is not evidence of safety.
func (n *Node) shouldShed(rec *trace.Record, prior *core.PredictionSummary, now time.Time) bool {
	if prior == nil {
		return false
	}
	if prior.MeanPNormal < DefaultShedSafePNormal {
		return false
	}
	age := time.Duration(now.UnixMilli()-rec.TimestampMs) * time.Millisecond
	return age > n.cfg.ShedStaleAfter
}

// drainSummaries ingests pending CO-DATA messages into the summary store.
func (n *Node) drainSummaries() error {
	for {
		got, err := n.coConsumer.PollEach(256, n.takeSummary)
		if got == 0 || err != nil {
			return err
		}
	}
}

// putSummary stores one lent CO-DATA summary. DecodeSummary copies what it
// keeps, so the lent view goes no further.
func (n *Node) putSummary(m stream.Message) {
	s, err := core.DecodeSummary(m.Value)
	if err != nil {
		return // malformed summaries are dropped, not fatal
	}
	n.summaries.Put(s)
	n.recvSumm.Add(1)
}

// Handover forwards the car's prediction summary to the named neighbor
// (write to its CO-DATA topic) and forgets the local history — the
// paper's §IV-D mesoscopic mechanism. Unknown cars are a no-op: the car
// may never have sent data through this RSU.
func (n *Node) Handover(car trace.CarID, neighbor string) error {
	n.mu.Lock()
	p, ok := n.neighbors[neighbor]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNeighbor, neighbor)
	}
	sum, found := n.builder.Summarize(car)
	if !found {
		return nil
	}
	// Key and summary share one pooled buffer; Send copies what it keeps.
	buf := appendCarKey(stream.GetPayload(), car)
	keyLen := len(buf)
	buf, err := core.AppendSummary(buf, sum)
	if err != nil {
		stream.PutPayload(buf)
		return fmt.Errorf("rsu %s: encode summary: %w", n.cfg.Name, err)
	}
	_, _, err = p.Send(buf[:keyLen:keyLen], buf[keyLen:])
	stream.PutPayload(buf)
	if err != nil {
		// The local history is kept: a later handover (or a healed link)
		// can still deliver it.
		n.dropped.Add(1)
		n.cfg.Logger.Warn("handover dropped",
			"rsu", n.cfg.Name, "car", int64(car), "neighbor", neighbor, "err", err)
		return fmt.Errorf("rsu %s: handover car %d to %s: %w", n.cfg.Name, car, neighbor, err)
	}
	n.builder.Forget(car)
	n.sentSumm.Add(1)
	if n.logs(slog.LevelInfo) {
		n.cfg.Logger.Info("handover",
			"rsu", n.cfg.Name, "car", int64(car), "neighbor", neighbor,
			"meanPNormal", sum.MeanPNormal, "count", sum.Count)
	}
	return nil
}

// discardHandler drops all records (the nil-logger default).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Run drives the pipeline on the wall clock until the context ends:
// CO-DATA draining plus micro-batch processing every BatchInterval.
func (n *Node) Run(ctx context.Context) error {
	ticker := time.NewTicker(n.engine.Interval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			_, _ = n.Step() // per-batch errors are recoverable; stats track them
		}
	}
}

// Stats returns a snapshot of node activity.
func (n *Node) Stats() Stats {
	return Stats{
		Records:           n.records.Load(),
		Warnings:          n.warnings.Load(),
		SummariesSent:     n.sentSumm.Load(),
		SummariesReceived: n.recvSumm.Load(),
		PriorHits:         n.priorHits.Load(),
		PriorMisses:       n.priorMisses.Load(),
		DetectErrors:      n.detectErrors.Load(),
		Fallbacks:         n.fallbacks.Load(),
		DroppedHandovers:  n.dropped.Load(),
		ShedStale:         n.shedStale.Load(),
		DegradedRounds:    n.degradedRounds.Load(),
		Degraded:          n.degraded.Load(),
		SummaryStore:      n.summaries.Stats(),
		Engine:            n.engine.Stats(),
	}
}

// Ping checks the node's broker liveness with the cheapest round trip
// (cad3-rsu's /health probe).
func (n *Node) Ping() error {
	_, err := n.cfg.Client.PartitionCount(stream.TopicInData)
	return err
}

// Client returns the node's broker client, which never changes after New.
func (n *Node) Client() stream.Client { return n.cfg.Client }

// TrackedCars returns the number of vehicles with local prediction
// history.
//
//cad3:allow reach TestScenarioHarnessCrashRecover compares a recovered node's car count with the crashed one's
func (n *Node) TrackedCars() int { return n.builder.Cars() }

// Registry returns the node's observability registry (the /metrics
// backing store; checkpointing persists its snapshot).
func (n *Node) Registry() *obsv.Registry { return n.cfg.Metrics }

// TraceRing returns the node's recent-trace ring (the /trace/recent
// backing store).
func (n *Node) TraceRing() *obsv.TraceRing { return n.ring }
