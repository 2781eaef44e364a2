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
	// read lends committed records from in-sync followers
	// (fetch-from-ISR), never past the committed offset.
	read stream.Client

	// Per-partition read cursors, each the offset after the last record
	// lent from its partition, and one drain round's reads.
	inOff, coOff, outOff []int64
	reads                []stream.PartitionRead

	builder *core.SummaryBuilder
	store   *core.SummaryStore

	// Handovers this shard has applied (receiver-side dedup: the router
	// transport is at-least-once, application is exactly-once).
	applied map[hoKey]bool

	// pending holds produces refused during leaderless windows, retried
	// in FIFO order each tick. Entries own their buffers.
	pending []pendingRec
	head    int

	// held is the warnings of the IN-DATA read in progress, whose keys
	// and encoded values lie back to back in arena: a lent read runs
	// under the replica set's lock, so they are produced once it is over.
	arena []byte
	held  []heldWarning

	// Load accounting for the skew gauges.
	dwellMs int64
	records int64

	// onBatch and onTick are the shard's two recurring simulator
	// events, and onIn, onCo and onOut what each topic's drain lends its
	// records to, all built once so a firing allocates nothing.
	onBatch, onTick   func()
	onIn, onCo, onOut func(stream.Message)
}

// pendingRec is one queued produce: owned copies plus, when book is set,
// the telemetry record to mark acked in the warning ledger once it
// finally lands.
type pendingRec struct {
	topic      string
	key, value []byte
	ack        warnKey
	book       bool
}

// heldWarning is where one held warning ends in the shard's arena: its
// key ends at keyEnd, its value at end, and the next warning starts there.
type heldWarning struct{ keyEnd, end int }

// drainMax is the most records one drain round lends.
const drainMax = 512

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
		read:    rs.ReadClient(stream.AckAll),
		inOff:   make([]int64, cityPartitions),
		coOff:   make([]int64, cityPartitions),
		outOff:  make([]int64, cityPartitions),
		reads:   make([]stream.PartitionRead, cityPartitions),
		builder: core.NewSummaryBuilder(int64(id), d.sim.Now),
		store:   core.NewSummaryStore(citySummaryTTL, d.sim.Now),
		applied: make(map[hoKey]bool),
	}
	s.onBatch = func() { d.runBatch(s) }
	s.onTick = func() { d.runTick(s) }
	// Each moves its partition's cursor past the lent record and hands
	// it on. The calls are direct, so the record stays on the stack.
	s.onIn = func(m stream.Message) {
		s.inOff[m.Partition] = m.Offset + 1
		s.handleIn(&m)
	}
	s.onCo = func(m stream.Message) {
		s.coOff[m.Partition] = m.Offset + 1
		s.handleCo(&m)
	}
	s.onOut = func(m stream.Message) {
		s.outOff[m.Partition] = m.Offset + 1
		s.handleOut(&m)
	}
	return s, nil
}

// produce appends one record at AckAll, preserving FIFO order with any
// backlog: while the pending queue is non-empty new records queue
// behind it rather than overtake. With book set, the warning ledger's
// row ack is marked acked once the record lands.
func (s *shard) produce(topic string, key, value []byte, ack warnKey, book bool) {
	if s.head < len(s.pending) {
		s.enqueue(topic, key, value, ack, book)
		return
	}
	if _, _, err := s.prod.Produce(topic, stream.AutoPartition, key, value); err != nil {
		s.enqueue(topic, key, value, ack, book)
		return
	}
	if book {
		s.d.ackTelemetry(ack)
	}
}

// enqueue copies the record into an owned pending entry (callers reuse
// their scratch buffers).
func (s *shard) enqueue(topic string, key, value []byte, ack warnKey, book bool) {
	s.pending = append(s.pending, pendingRec{
		topic: topic,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		ack:   ack,
		book:  book,
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
		if p.book {
			s.d.ackTelemetry(p.ack)
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
// the warning log through committed-offset (follower-read) fetches. The
// telemetry's warnings are produced between the first drain and the
// others, so the warning log's drain sees them.
func (s *shard) batch() int {
	n := s.drain(stream.TopicInData, s.inOff, s.onIn)
	s.produceHeld()
	n += s.drain(stream.TopicCoData, s.coOff, s.onCo)
	n += s.drain(stream.TopicOutData, s.outOff, s.onOut)
	return n
}

// tick is one control-plane round: elections + follower resync, then a
// backlog retry now that leadership may have settled.
func (s *shard) tick() {
	s.rs.Tick()
	s.retryPending()
}

// drain lends one topic's committed records to lend, every partition
// from its cursor in each round, until a round lends fewer than it asked
// for: that round read every partition up to its committed offset, and
// nothing between two rounds produces or commits, so another would lend
// nothing. A leaderless partition simply stays put until a later round.
func (s *shard) drain(topic string, offs []int64, lend func(stream.Message)) int {
	n := 0
	for {
		for p := range s.reads {
			s.reads[p] = stream.PartitionRead{Partition: int32(p), Offset: offs[p]}
		}
		got := s.read.FetchEach(topic, s.reads, drainMax, lend)
		n += got
		if got < drainMax {
			return n
		}
	}
}

// produceHeld produces the held warnings in the order they were raised
// and empties the arena.
func (s *shard) produceHeld() {
	start := 0
	for _, h := range s.held {
		s.produce(stream.TopicOutData, s.arena[start:h.keyEnd], s.arena[h.keyEnd:h.end], warnKey{}, false)
		start = h.end
	}
	s.arena = s.arena[:0]
	s.held = s.held[:0]
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
	s.arena = append(s.arena, msg.Key...)
	keyEnd := len(s.arena)
	s.arena = core.AppendWarning(s.arena, w)
	s.held = append(s.held, heldWarning{keyEnd: keyEnd, end: len(s.arena)})
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
	row, ok := s.d.hoLedger[k]
	if !ok || row.dst != s.id {
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
	s.d.hoLedger[k] = row
	s.store.Put(sum)
	s.d.m.handoverApplied.Inc()
}

// handleOut credits one delivered warning against the settlement ledger.
func (s *shard) handleOut(msg *stream.Message) {
	w, err := core.DecodeWarning(msg.Value)
	if err != nil {
		return
	}
	k := warnKey{car: w.Car, ts: w.SourceTsMs}
	if row, ok := s.d.warnLedger[k]; ok {
		row.seen++
		s.d.warnLedger[k] = row
	}
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
// while still fresh (chained handover). live reports the first case,
// whose history the caller forgets once the summary is on its way.
func (s *shard) summarizeForHandover(car trace.CarID) (sum core.PredictionSummary, live, ok bool) {
	if sum, ok := s.builder.Summarize(car); ok {
		return sum, true, true
	}
	sum, ok = s.store.Get(car)
	return sum, false, ok
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
