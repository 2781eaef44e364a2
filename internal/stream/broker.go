package stream

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cad3/internal/flow"
	"cad3/internal/obsv"
)

// Broker errors that callers match with errors.Is.
var (
	ErrTopicExists    = errors.New("stream: topic already exists")
	ErrUnknownTopic   = errors.New("stream: unknown topic")
	ErrBadPartition   = errors.New("stream: partition out of range")
	ErrBrokerClosed   = errors.New("stream: broker closed")
	ErrPartitionDown  = errors.New("stream: partition unavailable")
	ErrValueTooLarge  = errors.New("stream: value exceeds max message size")
	ErrEmptyTopicName = errors.New("stream: empty topic name")
)

// MaxMessageSize bounds a single message value (1 MiB, as Kafka's default).
const MaxMessageSize = 1 << 20

// AutoPartition selects key-hash (or round-robin for nil keys)
// partitioning on Produce.
const AutoPartition int32 = -1

// BrokerConfig tunes a broker.
type BrokerConfig struct {
	// MaxRetainedPerPartition bounds per-partition log memory. Values
	// <= 0 select the default (65536 messages).
	MaxRetainedPerPartition int
	// Now injects the clock (virtual time in simulations). Nil selects
	// time.Now.
	Now func() time.Time
	// Metrics, when set, receives broker throughput counters
	// (broker.produced/fetched messages and bytes) and, when flow control
	// is on, the flow.<topic>.* admission counters. Trace-context arrival
	// stamping is independent of this field — traced payloads are always
	// stamped.
	Metrics *obsv.Registry
	// FlowCapacity bounds each partition's un-drained backlog (messages):
	// produce consumes a credit, fetch (or retention eviction) returns it,
	// and a partition near its bound sheds telemetry with
	// flow.ErrBackpressure (warnings and summaries are never shed; see
	// flow.Gate). Values <= 0 disable admission control (the legacy
	// unbounded hand-off).
	FlowCapacity int
}

// ClassForTopic maps the CAD3 topics onto flow priority classes: IN-DATA
// telemetry is sheddable, OUT-DATA warnings and CO-DATA summaries are not.
func ClassForTopic(name string) flow.Class {
	switch name {
	case TopicInData:
		return flow.ClassTelemetry
	case TopicOutData:
		return flow.ClassWarning
	case TopicCoData:
		return flow.ClassSummary
	default:
		return flow.ClassOther
	}
}

// Broker is an in-memory, thread-safe event broker: the per-RSU Kafka
// substitute. One broker instance backs one RSU.
type Broker struct {
	cfg    BrokerConfig
	mu     sync.RWMutex
	topics map[string]*topic
	closed bool
	rr     atomic.Uint64 // round-robin counter for nil-key produce
	// downPartitions supports failure injection in tests: a (topic,
	// partition) marked down rejects produce and fetch.
	downMu sync.RWMutex
	down   map[string]map[int32]bool

	// Replication role state per (topic, partition). Absent entries lead
	// at epoch 0, so a broker nobody replicates stays oblivious. See
	// replication.go.
	roleMu sync.RWMutex
	roles  map[string]map[int32]partRole

	// Counters for bandwidth accounting.
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	// Cached registry handles (nil when cfg.Metrics is nil) so the
	// produce/fetch paths never take the registry lookup lock.
	mProducedMsgs, mProducedBytes *obsv.Counter
	mFetchedMsgs, mFetchedBytes   *obsv.Counter
	mReplRecords, mReplFenced     *obsv.Counter
}

// NewBroker creates an empty broker.
func NewBroker(cfg BrokerConfig) *Broker {
	b := &Broker{
		cfg:    cfg,
		topics: make(map[string]*topic),
		down:   make(map[string]map[int32]bool),
		roles:  make(map[string]map[int32]partRole),
	}
	if cfg.Metrics != nil {
		b.mProducedMsgs = cfg.Metrics.Counter("broker.produced.msgs")
		b.mProducedBytes = cfg.Metrics.Counter("broker.produced.bytes")
		b.mFetchedMsgs = cfg.Metrics.Counter("broker.fetched.msgs")
		b.mFetchedBytes = cfg.Metrics.Counter("broker.fetched.bytes")
		b.mReplRecords = cfg.Metrics.Counter("repl.records")
		b.mReplFenced = cfg.Metrics.Counter("repl.fenced")
	}
	return b
}

// now returns the broker clock for trace-arrival stamping.
func (b *Broker) now() time.Time {
	if b.cfg.Now != nil {
		return b.cfg.Now()
	}
	return time.Now()
}

// CreateTopic creates a topic with the given partition count. Creating an
// existing topic with the same partition count is a no-op; with a
// different count it returns ErrTopicExists.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if name == "" {
		return ErrEmptyTopicName
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBrokerClosed
	}
	if existing, ok := b.topics[name]; ok {
		if len(existing.partitions) == partitions {
			return nil
		}
		return fmt.Errorf("%w: %q with %d partitions", ErrTopicExists, name, len(existing.partitions))
	}
	t, err := newTopic(name, partitions, b.cfg.MaxRetainedPerPartition)
	if err != nil {
		return err
	}
	if b.cfg.FlowCapacity > 0 {
		// One admission gate per partition; counters are shared per topic
		// (same registry names resolve to the same handles), occupancy is
		// re-registered below as the partition sum.
		for _, pl := range t.partitions {
			pl.gate = flow.NewGate(flow.GateConfig{
				Capacity: b.cfg.FlowCapacity,
				Metrics:  b.cfg.Metrics,
				Name:     "flow." + name,
			})
		}
		if b.cfg.Metrics != nil {
			parts := t.partitions
			b.cfg.Metrics.RegisterGaugeFunc("flow."+name+".occupancy", func() int64 {
				var total int64
				for _, pl := range parts {
					total += pl.gate.Occupancy()
				}
				return total
			})
		}
	}
	b.topics[name] = t
	return nil
}

// FlowStats sums the named topic's per-partition gate statistics. A
// zero-value Stats is returned for unknown topics or a flow-disabled
// broker.
func (b *Broker) FlowStats(topicName string) flow.Stats {
	b.mu.RLock()
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return flow.Stats{}
	}
	var total flow.Stats
	for _, pl := range t.partitions {
		if pl.gate == nil {
			continue
		}
		s := pl.gate.Stats()
		total.Admitted += s.Admitted
		total.Occupancy += s.Occupancy
		total.Capacity += s.Capacity
		for c := range s.Shed {
			total.Shed[c] += s.Shed[c]
		}
	}
	return total
}

// Topics returns the topic names, sorted.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PartitionCount returns the number of partitions of a topic. A closed
// broker refuses metadata requests too (heartbeats must see it as dead).
func (b *Broker) PartitionCount(name string) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return 0, ErrBrokerClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return len(t.partitions), nil
}

// Produce appends a message. partition AutoPartition selects a partition
// by FNV key hash, or round-robin when key is nil. It returns the chosen
// partition and the assigned offset.
func (b *Broker) Produce(topicName string, partition int32, key, value []byte) (int32, int64, error) {
	return b.produceStored(topicName, partition, key, value, nil)
}

// produceStored is Produce; a non-nil stored is filled with the record
// as the log now holds it: the log's own copy of key and value (the value
// trace-stamped, where it carries a trace) and the append timestamp —
// what a replication controller pushes to followers so that their logs
// match the leader's byte for byte. The slices are views into a log
// chunk, which retention reuses once later appends have evicted the
// record (maxRetained/2 of them at the least): hold them only across a
// push the controller serializes with its own produces.
func (b *Broker) produceStored(topicName string, partition int32, key, value []byte, stored *ReplicaRecord) (int32, int64, error) {
	if len(value) > MaxMessageSize {
		return 0, 0, ErrValueTooLarge
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, 0, ErrBrokerClosed
	}
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}

	if partition == AutoPartition {
		partition = b.pickPartition(topicName, key, len(t.partitions))
	}
	if partition < 0 || int(partition) >= len(t.partitions) {
		return 0, 0, fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, partition)
	}
	if b.partitionDown(topicName, partition) {
		return 0, 0, fmt.Errorf("%w: %q/%d", ErrPartitionDown, topicName, partition)
	}
	// Follower partitions refuse produces with the current leader hint;
	// only replication (ReplicaAppend) may write them.
	if err := b.leaderCheck(topicName, partition); err != nil {
		return 0, 0, err
	}

	// Admission control: a flow-controlled partition takes a credit or
	// refuses. The refusal returns the gate's preallocated backpressure
	// error untouched — no wrapping, no allocation — so senders can match
	// flow.ErrBackpressure and read the retry-after hint.
	if gate := t.partitions[partition].gate; gate != nil {
		if err := gate.Admit(ClassForTopic(topicName)); err != nil {
			return 0, 0, err
		}
	}

	// The log copies the payload into its own chunk, so the producer may
	// recycle its buffer as soon as Produce returns. One clock reading
	// serves as both the append time and the StageArrive trace stamp.
	offset := t.partitions[partition].append(key, value, b.now(), stored)
	size := int64(Message{Topic: topicName, Key: key, Value: value}.WireSize())
	b.bytesIn.Add(size)
	if b.mProducedMsgs != nil {
		b.mProducedMsgs.Inc()
		b.mProducedBytes.Add(size)
	}
	return partition, offset, nil
}

// produceRun is produceStored for one partition's share of a replicated
// batch — the records recs[i] for i in idx, none over MaxMessageSize —
// with the topic lookup, the down and leader checks and the clock reading
// done once. A refusal of the partition as a whole is the error; anything
// else is per record in res (see partitionLog.appendRun, which also says
// why n may stop short of len(idx) and what base and stored are).
func (b *Broker) produceRun(topicName string, partition int32, recs []BatchRecord, idx []int32, res []BatchResult, stored *[]ReplicaRecord) (n int, base int64, err error) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, 0, ErrBrokerClosed
	}
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	if partition < 0 || int(partition) >= len(t.partitions) {
		return 0, 0, fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, partition)
	}
	if b.partitionDown(topicName, partition) {
		return 0, 0, fmt.Errorf("%w: %q/%d", ErrPartitionDown, topicName, partition)
	}
	if err := b.leaderCheck(topicName, partition); err != nil {
		return 0, 0, err
	}
	n, base, appended, bytes := t.partitions[partition].appendRun(recs, idx, res, b.now(), ClassForTopic(topicName), stored)
	b.bytesIn.Add(bytes)
	if b.mProducedMsgs != nil {
		b.mProducedMsgs.Add(int64(appended))
		b.mProducedBytes.Add(bytes)
	}
	return n, base, nil
}

// isClosed reports whether Close has been called.
func (b *Broker) isClosed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

// ProduceBatch appends a batch of records in one pass, reporting each
// record's outcome (partition, offset, or refusal) to out in record
// order. It amortizes the per-record costs of Produce across the batch:
// one topic lookup, one clock read, and — for runs of consecutive
// records landing on the same partition — one partition-lock acquisition
// per run instead of per record. Admission control stays per record:
// each record takes its own flow credit or gets its own backpressure
// refusal, exactly as if produced individually.
//
// Only whole-batch failures (closed broker, unknown topic) are returned
// as an error; everything else is per record.
func (b *Broker) ProduceBatch(topicName string, partition int32, recs []BatchRecord, out func(i int, part int32, off int64, err error)) error {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrBrokerClosed
	}
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	now := b.now()
	class := ClassForTopic(topicName)

	// Accepted records accumulate into runs of one destination partition;
	// a partition switch or a refused record flushes the pending run, so a
	// run is always the contiguous stretch recs[runStart:runEnd] and goes
	// to the log as it is.
	runStart, runEnd := 0, 0
	runPart := int32(-1)
	var runBytes int64
	flush := func() {
		if runEnd == runStart {
			return
		}
		base := t.partitions[runPart].appendBatch(recs[runStart:runEnd], now)
		for k := runStart; k < runEnd; k++ {
			out(k, runPart, base+int64(k-runStart), nil)
		}
		b.bytesIn.Add(runBytes)
		if b.mProducedMsgs != nil {
			b.mProducedMsgs.Add(int64(runEnd - runStart))
			b.mProducedBytes.Add(runBytes)
		}
		runStart = runEnd
		runBytes = 0
	}

	for i := range recs {
		key, value := recs[i].Key, recs[i].Value
		if len(value) > MaxMessageSize {
			flush()
			out(i, 0, 0, ErrValueTooLarge)
			continue
		}
		part := partition
		if part == AutoPartition {
			part = b.pickPartition(topicName, key, len(t.partitions))
		}
		if part < 0 || int(part) >= len(t.partitions) {
			flush()
			out(i, 0, 0, fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, part))
			continue
		}
		if b.partitionDown(topicName, part) {
			flush()
			out(i, 0, 0, fmt.Errorf("%w: %q/%d", ErrPartitionDown, topicName, part))
			continue
		}
		if lerr := b.leaderCheck(topicName, part); lerr != nil {
			flush()
			out(i, 0, 0, lerr)
			continue
		}
		if gate := t.partitions[part].gate; gate != nil {
			if err := gate.Admit(class); err != nil {
				flush()
				out(i, 0, 0, err)
				continue
			}
		}
		if part != runPart {
			flush()
			runPart = part
		}
		if runEnd == runStart {
			runStart = i
		}
		runEnd = i + 1
		runBytes += int64(Message{Topic: topicName, Key: key, Value: value}.WireSize())
	}
	flush()
	return nil
}

// readablePartition resolves the log a fetch reads, or the reason it
// cannot.
func (b *Broker) readablePartition(topicName string, partition int32) (*partitionLog, error) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrBrokerClosed
	}
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	if partition < 0 || int(partition) >= len(t.partitions) {
		return nil, fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, partition)
	}
	if b.partitionDown(topicName, partition) {
		return nil, fmt.Errorf("%w: %q/%d", ErrPartitionDown, topicName, partition)
	}
	return t.partitions[partition], nil
}

// fetched books n messages of the given wire size as read.
func (b *Broker) fetched(n int, bytes int64) {
	b.bytesOut.Add(bytes)
	if b.mFetchedMsgs != nil {
		b.mFetchedMsgs.Add(int64(n))
		b.mFetchedBytes.Add(bytes)
	}
}

// Fetch reads up to max messages from a partition starting at offset. The
// caller owns the messages' Key and Value buffers (see pool.go).
func (b *Broker) Fetch(topicName string, partition int32, offset int64, max int) ([]Message, error) {
	pl, err := b.readablePartition(topicName, partition)
	if err != nil {
		return nil, err
	}
	msgs, bytes := pl.read(offset, max)
	b.fetched(len(msgs), bytes)
	return msgs, nil
}

// FetchEach is Fetch without the copies: it lends fn each message in
// offset order and returns how many there were. Key and Value are views of
// the partition log, good only until fn returns, and fn runs under the
// partition lock: it must not keep them and must not call back into the
// broker. Everything else — the below-base clamp, flow credits, byte
// accounting — is Fetch's.
func (b *Broker) FetchEach(topicName string, partition int32, offset int64, max int, fn func(Message)) (int, error) {
	pl, err := b.readablePartition(topicName, partition)
	if err != nil {
		return 0, err
	}
	n, bytes := pl.scan(offset, max, fn)
	b.fetched(n, bytes)
	return n, nil
}

// HighWaterMark returns the next offset to be assigned in a partition.
func (b *Broker) HighWaterMark(topicName string, partition int32) (int64, error) {
	b.mu.RLock()
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	if partition < 0 || int(partition) >= len(t.partitions) {
		return 0, fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, partition)
	}
	return t.partitions[partition].highWaterMark(), nil
}

// SetPartitionDown marks a partition available or unavailable — the
// failure-injection hook used by resilience tests.
func (b *Broker) SetPartitionDown(topicName string, partition int32, down bool) {
	b.downMu.Lock()
	defer b.downMu.Unlock()
	m, ok := b.down[topicName]
	if !ok {
		m = make(map[int32]bool)
		b.down[topicName] = m
	}
	m[partition] = down
}

func (b *Broker) partitionDown(topicName string, partition int32) bool {
	b.downMu.RLock()
	defer b.downMu.RUnlock()
	return b.down[topicName][partition]
}

// BytesIn returns the cumulative produced bytes (wire-size accounted).
func (b *Broker) BytesIn() int64 { return b.bytesIn.Load() }

// BytesOut returns the cumulative fetched bytes.
func (b *Broker) BytesOut() int64 { return b.bytesOut.Load() }

// Close marks the broker closed; subsequent produce/fetch fail.
func (b *Broker) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return nil
}

// pickPartition selects a partition for AutoPartition produces: FNV key
// hash for keyed messages (affinity beats availability — a down partition
// still errors, preserving ordering-by-key), round-robin for nil keys. The
// nil-key rotor skips partitions marked down so load spreads over the
// healthy remainder; only when every partition is down does it fall
// through to the rotor's raw pick (and Produce surfaces ErrPartitionDown).
func (b *Broker) pickPartition(topicName string, key []byte, n int) int32 {
	if n == 1 {
		return 0
	}
	if key == nil {
		start := b.rr.Add(1)
		for i := 0; i < n; i++ {
			p := int32((start + uint64(i)) % uint64(n))
			if !b.partitionDown(topicName, p) {
				return p
			}
		}
		return int32(start % uint64(n))
	}
	h := fnv.New32a()
	_, _ = h.Write(key)
	return int32(h.Sum32() % uint32(n))
}
