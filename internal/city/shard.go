package city

import (
	"encoding/binary"
	"fmt"

	"cad3/internal/core"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// shard is one worker: a replicated broker cluster plus the detection
// state for the RSU sites the ring assigned it. All of a shard's work
// runs inside simulator events, so everything here is single-threaded.
type shard struct {
	d    *Driver
	id   int
	name string

	rs   *stream.ReplicaSet
	prod *stream.ReplicatedClient // AckAll producer

	// Per-partition read cursors, advanced by FetchCommitted — shard
	// consumers read from followers (fetch-from-ISR), never past the
	// committed offset.
	inOff, coOff, outOff []int64

	builder *core.SummaryBuilder
	store   *core.SummaryStore

	// Handovers this shard has applied (receiver-side dedup: the router
	// transport is at-least-once, application is exactly-once).
	applied map[hoKey]bool

	// pending holds produces refused during leaderless windows, retried
	// in FIFO order each tick. Entries own their buffers.
	pending []pendingRec
	head    int

	// Load accounting for the skew gauges.
	dwellMs int64
	records int64

	// onBatch and onTick are the shard's two recurring simulator
	// events, built once so a firing allocates nothing.
	onBatch, onTick func()
}

// pendingRec is one queued produce: owned copies plus the ack callback
// (ledger bookkeeping) to run when it finally lands.
type pendingRec struct {
	topic      string
	key, value []byte
	onAck      func()
}

// newShard stands up one shard's broker cluster on the driver's clock.
func newShard(d *Driver, id int) (*shard, error) {
	cfg := d.cfg
	bcfg := stream.BrokerConfig{Now: d.sim.Now}
	replicas := make([]stream.Replica, cfg.Replicas)
	for r := 0; r < cfg.Replicas; r++ {
		replicas[r] = stream.Replica{
			ID:     fmt.Sprintf("s%d-r%d", id, r),
			Broker: stream.NewBroker(bcfg),
		}
	}
	rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{
		Metrics: cfg.Metrics,
		Rebuild: bcfg,
	}, replicas...)
	if err != nil {
		return nil, err
	}
	for _, topic := range []string{stream.TopicInData, stream.TopicCoData, stream.TopicOutData} {
		if err := rs.CreateTopic(topic, cityPartitions); err != nil {
			return nil, err
		}
	}
	s := &shard{
		d:       d,
		id:      id,
		name:    fmt.Sprintf("shard-%d", id),
		rs:      rs,
		prod:    rs.Client(stream.AckAll),
		inOff:   make([]int64, cityPartitions),
		coOff:   make([]int64, cityPartitions),
		outOff:  make([]int64, cityPartitions),
		builder: core.NewSummaryBuilder(int64(id), d.sim.Now),
		store:   core.NewSummaryStore(citySummaryTTL, d.sim.Now),
		applied: make(map[hoKey]bool),
	}
	s.onBatch = func() { d.runBatch(s) }
	s.onTick = func() { d.runTick(s) }
	return s, nil
}

// produce appends one record at AckAll, preserving FIFO order with any
// backlog: while the pending queue is non-empty new records queue
// behind it rather than overtake.
func (s *shard) produce(topic string, key, value []byte, onAck func()) {
	if s.head < len(s.pending) {
		s.enqueue(topic, key, value, onAck)
		return
	}
	if _, _, err := s.prod.Produce(topic, stream.AutoPartition, key, value); err != nil {
		s.enqueue(topic, key, value, onAck)
		return
	}
	if onAck != nil {
		onAck()
	}
}

// enqueue copies the record into an owned pending entry (callers reuse
// their scratch buffers).
func (s *shard) enqueue(topic string, key, value []byte, onAck func()) {
	s.pending = append(s.pending, pendingRec{
		topic: topic,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		onAck: onAck,
	})
}

// retryPending replays the backlog in order, stopping at the first
// record the cluster still refuses. Reports whether anything landed.
func (s *shard) retryPending() bool {
	progressed := false
	for s.head < len(s.pending) {
		p := s.pending[s.head]
		if _, _, err := s.prod.Produce(p.topic, stream.AutoPartition, p.key, p.value); err != nil {
			break
		}
		s.d.m.produceRetries.Inc()
		if p.onAck != nil {
			p.onAck()
		}
		s.pending[s.head] = pendingRec{}
		s.head++
		progressed = true
	}
	if s.head == len(s.pending) {
		s.pending = s.pending[:0]
		s.head = 0
	}
	return progressed
}

// pendingCount reports the backlog length (settlement quiescence check).
func (s *shard) pendingCount() int { return len(s.pending) - s.head }

// batch is one detection round: drain telemetry, inbound handovers and
// the warning log through committed-offset (follower-read) fetches.
func (s *shard) batch() int {
	n := s.drain(stream.TopicInData, s.inOff, s.handleIn)
	n += s.drain(stream.TopicCoData, s.coOff, s.handleCo)
	n += s.drain(stream.TopicOutData, s.outOff, s.handleOut)
	return n
}

// tick is one control-plane round: elections + follower resync, then a
// backlog retry now that leadership may have settled.
func (s *shard) tick() {
	s.rs.Tick()
	s.retryPending()
}

// drain advances one topic's cursors through FetchCommitted until dry.
// A leaderless partition simply stays put until a later round.
func (s *shard) drain(topic string, offs []int64, handle func(m *stream.Message)) int {
	n := 0
	for p := range offs {
		for {
			msgs, err := s.rs.FetchCommitted(topic, int32(p), offs[p], 512)
			if err != nil || len(msgs) == 0 {
				break
			}
			for i := range msgs {
				handle(&msgs[i])
			}
			offs[p] += int64(len(msgs))
			n += len(msgs)
			stream.RecycleMessages(msgs)
		}
	}
	return n
}

// handleIn runs detection on one telemetry record: consult the
// collaborative prior, fold the prediction into the summary builder,
// and emit a warning for abnormal driving.
func (s *shard) handleIn(msg *stream.Message) {
	rec, err := core.DecodeRecord(msg.Value)
	if err != nil {
		return
	}
	s.records++
	if _, ok := s.store.Get(rec.Car); ok {
		s.d.m.priorHits.Inc()
	} else {
		s.d.m.priorFallbacks.Inc()
	}
	abnormal := rec.Accel >= s.d.cfg.AccelThreshold
	pNormal := 0.95
	if abnormal {
		pNormal = 0.05
	}
	s.builder.Observe(rec.Car, pNormal)
	if !abnormal {
		return
	}
	s.d.m.warnings.Inc()
	w := core.Warning{
		Car:          rec.Car,
		Road:         int64(rec.Road),
		PNormal:      pNormal,
		SourceTsMs:   rec.TimestampMs,
		DetectedTsMs: s.d.nowMs(),
	}
	s.d.scratch = core.AppendWarning(s.d.scratch[:0], w)
	s.produce(stream.TopicOutData, msg.Key, s.d.scratch, nil)
}

// handleCo applies one inbound handover summary, exactly once: repeat
// deliveries of a (car, seq) the shard has already applied are
// suppressed, and summaries addressed to another shard are refused.
func (s *shard) handleCo(msg *stream.Message) {
	car, seq, ok := parseHandoverKey(msg.Key)
	if !ok {
		return
	}
	k := hoKey{car: car, seq: seq}
	row := s.d.hoLedger[k]
	if row == nil || row.dst != s.id {
		s.d.m.handoverMisrouted.Inc()
		return
	}
	if s.applied[k] {
		s.d.m.handoverDups.Inc()
		return
	}
	sum, err := core.DecodeSummary(msg.Value)
	if err != nil {
		return
	}
	s.applied[k] = true
	row.applied++
	s.store.Put(sum)
	s.d.m.handoverApplied.Inc()
}

// handleOut credits one delivered warning against the settlement ledger.
func (s *shard) handleOut(msg *stream.Message) {
	w, err := core.DecodeWarning(msg.Value)
	if err != nil {
		return
	}
	s.d.warnSeen[warnKey{car: w.Car, ts: w.SourceTsMs}]++
	s.d.m.warningsDelivered.Inc()
}

// applyFault executes one scheduled replica kill or revive.
func (s *shard) applyFault(f Fault) {
	id := fmt.Sprintf("s%d-r%d", s.id, f.Replica)
	if f.Revive {
		_, _ = s.rs.Revive(id)
	} else {
		_ = s.rs.Kill(id)
	}
}

// summarizeForHandover produces the CO-DATA payload for a departing
// vehicle: live prediction history first, else the last forwarded prior
// while still fresh (chained handover).
func (s *shard) summarizeForHandover(car trace.CarID) (core.PredictionSummary, bool) {
	if sum, ok := s.builder.Summarize(car); ok {
		s.builder.Forget(car)
		return sum, true
	}
	return s.store.Get(car)
}

// handoverKeySize is the CO-DATA key layout: car (8 bytes) | seq (4).
const handoverKeySize = 12

// appendHandoverKey encodes a (car, seq) handover key into dst.
func appendHandoverKey(dst []byte, car trace.CarID, seq int32) []byte {
	var b [handoverKeySize]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(car))
	binary.BigEndian.PutUint32(b[8:12], uint32(seq))
	return append(dst, b[:]...)
}

// parseHandoverKey decodes a CO-DATA handover key.
func parseHandoverKey(key []byte) (trace.CarID, int32, bool) {
	if len(key) != handoverKeySize {
		return 0, 0, false
	}
	car := trace.CarID(binary.BigEndian.Uint64(key[0:8]))
	seq := int32(binary.BigEndian.Uint32(key[8:12]))
	return car, seq, true
}
